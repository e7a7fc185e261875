// Package proc names the scheduler P a goroutine runs on, so that state
// written on every request can be striped by core: the controller's
// counters, the serving layer's counters and completion windows, and the
// flight recorder's shards.
package proc

import _ "unsafe" // for go:linkname

// procPin and procUnpin are the runtime's, the pair sync.Pool uses to
// find its per-P cache. The runtime keeps both linkable from outside
// (see its comment on procPin).
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// ID reports the id of the scheduler P running the calling goroutine,
// in [0, GOMAXPROCS). The goroutine may move to another P as soon as ID
// returns, so use the id only to choose between equivalent stripes: a
// move costs one write to a cache line another core may hold, never a
// lost count.
func ID() int {
	p := procPin()
	procUnpin()
	return p
}
