// Package sim provides the discrete-event simulation kernel used by the
// packet-level network simulator: a picosecond-resolution clock, an event
// queue, and a deterministic random source.
//
// The kernel is deliberately single-threaded: a Simulator owns an event
// queue and advances virtual time by popping the earliest event. Given the
// same seed and the same sequence of scheduled events, two runs produce
// bit-identical results, which the test suite relies on.
//
// The event queue is where a packet-level run spends its time, so its
// layout is chosen for the host, not for brevity:
//
//   - Events live in a slab of slots indexed by uint32 and recycled through
//     a free list of indices; a Handle is (simulator, index, generation).
//     What is queued is a pointer-free 24-byte node {at, key, slot}, in
//     arrays the garbage collector does not scan.
//   - Regular traffic never enters a heap. The clock never runs backwards
//     and seq only grows, so the events scheduled one fixed delay ahead of
//     the clock are already in (at, key) order when they arrive: for one
//     delay a FIFO is a priority queue, its head the minimum and a push an
//     append. A packet run schedules most of its events at a handful of
//     delays (a delivery an MTU's, a tail's or an ack's serialisation
//     after the last, or that plus propagation; the RTO floor, the RPC
//     time-out and back-off), so the kernel keeps numLanes FIFO rings,
//     each keyed by one delay. A delay
//     claims a lane by recurring: one that matches no lane is remembered
//     among the last numMissed that did not, and when it is seen there
//     again it takes over an empty lane. An occupied lane is never
//     re-keyed, and a one-off delay (a generator gap, a re-armed RTO) is
//     not seen twice and never holds one. The next event is the minimum by
//     (at, key) over the heap top and the heads of the occupied lanes,
//     found through one occupancy word; with no lane occupied that is one
//     test and the heap's own pop.
//   - The heap holds what is left: one-off delays, fault plans, recurring
//     delays beyond numLanes. It is a 4-ary min-heap of the same nodes, so
//     a sift moves values inside one array and writes nothing outside it;
//     with the lanes beside it a cluster run's heap is 70-120 entries, three
//     levels deep or just into a fourth, where it was a few hundred (and
//     12 500 with a retry policy's dead time-out timers, which now wait in
//     one ring).
//   - Removing the minimum is bottom-up: the hole left by the root walks to
//     a leaf along the smallest children, and the displaced last node rises
//     from there, nearly always zero or one steps. The walk's length
//     depends only on the heap's size, not on the keys.
//   - Which of four children is smallest is computed, not branched on: x
//     sorts before y exactly when the 128-bit subtraction (x.at:x.key) -
//     (y.at:y.key) borrows, and the borrows index the child. Event keys are
//     as good as random, so a compare-and-jump mispredicts about half the
//     time; that, not memory traffic, is what a sift cost. The subtraction
//     treats at as unsigned, which is exact because no event time is
//     negative: the clock starts at 0 and At rejects times before Now.
//
// The order of the events of one instant is part of the model: first the
// AfterFirst ones by id (netsim's deliveries, keyed by link), then the
// ordinary ones as scheduled (and, in netsim, transmitters freeing last).
// The queue's layout is visible in no result: (at, key) is unique, every
// correct priority queue pops the same sequence, and where a node waits
// changes no comparison; TestKernelMatchesReference and FuzzKernelOrder
// check the kernel against a sort-based reference, and the golden-output
// tests of the root package pin the results byte for byte.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in picoseconds since the start of the
// simulation. Picoseconds keep packet serialisation times exact at rates up
// to ~1 Tbps (one byte at 100 Gbps is exactly 80 ps) while an int64 still
// covers about 106 days of simulated time.
type Time int64

// Duration is a span of simulated time, in picoseconds.
type Duration = Time

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = 1<<63 - 1

// Add returns t+d for d >= 0, saturating at MaxTime ("never").
func (t Time) Add(d Duration) Time {
	if t+d < t {
		return MaxTime
	}
	return t + d
}

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Std converts t to a time.Duration. Precision below one nanosecond is
// truncated.
func (t Time) Std() time.Duration { return time.Duration(t / Nanosecond) }

// FromStd converts a time.Duration into a simulation Duration.
func FromStd(d time.Duration) Duration { return Duration(d) * Nanosecond }

// FromSeconds converts floating-point seconds into a simulation Duration,
// rounding to the nearest picosecond.
func FromSeconds(s float64) Duration { return Duration(s*float64(Second) + 0.5) }

// FromMicros converts floating-point microseconds into a Duration.
func FromMicros(us float64) Duration { return Duration(us*float64(Microsecond) + 0.5) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t/Nanosecond))
	}
}
