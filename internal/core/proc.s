// An assembly file, even an empty one, lets the compiler accept the
// body-less declarations in proc.go, which the linker binds to the
// runtime.
