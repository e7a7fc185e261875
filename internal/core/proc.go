package core

import _ "unsafe" // for go:linkname

// procPin and procUnpin are the runtime's, the pair sync.Pool uses to
// find its per-P cache. The runtime keeps both linkable from outside
// (see its comment on procPin).
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// Proc reports the id of the scheduler P running the calling goroutine,
// in [0, GOMAXPROCS). The goroutine may move to another P as soon as Proc
// returns, so use the id only to choose between equivalent stripes: a
// move costs one write to a cache line another core may hold, never a
// lost count.
func Proc() int {
	p := procPin()
	procUnpin()
	return p
}
