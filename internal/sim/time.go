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
//   - A source (netsim's Link) keeps its own next firing time, so the
//     kernel holds one node per waiting source, not one per event: a link's
//     deliveries are FIFO, and the kernel sees only the first. Registered
//     sources wait in a small binary min-heap indexed by source id; a Wake
//     re-keys a source's node where it stands (a link that fires and wakes
//     for its next delivery sifts its node down from the root), and Idle
//     removes it. A packet's delivery takes no slot, no Handle and no push.
//   - Events live in a slab of slots indexed by uint32 and recycled through
//     a free list of indices; a Handle is (simulator, index, generation).
//     What is queued is a pointer-free 24-byte node {at, key, slot}, in
//     arrays the garbage collector does not scan.
//   - Events wait in a 4-ary min-heap of those nodes, so a sift moves
//     values inside one array and writes nothing outside it. With the
//     deliveries out of it, a run's heap holds its timers and little else.
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
// sources, by rank and then by id (netsim's deliveries, ranked by link),
// then the ordinary events as scheduled (and, in netsim, transmitters
// freeing last). The queue's layout is visible in no result: (at, key) is
// unique, and every correct priority queue pops the same sequence;
// TestKernelMatchesReference and FuzzKernelOrder check the kernel against
// a sort-based reference, and the golden-output tests of the root package
// pin the results byte for byte.
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
