package sim

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// kernel is what the differential driver needs of a scheduler. Handles are
// named by the order they were issued in, so one program drives both
// implementations.
type kernel interface {
	now() Time
	at(t Time, fn func()) int
	// register adds an idle source that calls fn when it fires; wake and
	// idle are Wake and Idle.
	register(rank uint32, fn func()) uint32
	wake(id uint32, t Time)
	idle(id uint32)
	cancel(h int) bool
	live(h int) bool
	step() bool
	runUntil(end Time)
	pending() int
	processed() uint64
}

// refKernel is the reference the event kernel is checked against: the
// queue is a slice sorted after every change by the rule the package
// comment states, (at, rank, id or seq): waiting sources by rank and then
// id, then ordinary events in scheduling order. Like the kernel it drops a
// cancelled event only when it reaches the head, so pending() agrees event
// for event, and a source that fires stays queued until it wakes or idles.
type refKernel struct {
	t    Time
	n    uint64
	seq  uint64
	q    []*refEvent
	hs   []*refEvent
	srcs []*refEvent
}

type refEvent struct {
	at              Time
	rank            uint64 // a source's rank, or ordinary
	ord             uint64 // a source's id, or seq
	fn              func()
	cancelled, gone bool
	source, queued  bool
}

func (k *refKernel) now() Time         { return k.t }
func (k *refKernel) pending() int      { return len(k.q) }
func (k *refKernel) processed() uint64 { return k.n }
func (k *refKernel) live(h int) bool   { return !k.hs[h].gone && !k.hs[h].cancelled }

func (k *refKernel) at(t Time, fn func()) int {
	k.seq++
	e := &refEvent{at: t, rank: ordinary, ord: k.seq, fn: fn}
	k.q = append(k.q, e)
	k.sort()
	k.hs = append(k.hs, e)
	return len(k.hs) - 1
}

func (k *refKernel) register(rank uint32, fn func()) uint32 {
	k.srcs = append(k.srcs, &refEvent{rank: uint64(rank), ord: uint64(len(k.srcs)), fn: fn, source: true})
	return uint32(len(k.srcs) - 1)
}

func (k *refKernel) wake(id uint32, t Time) {
	e := k.srcs[id]
	if e.at = t; !e.queued {
		e.queued = true
		k.q = append(k.q, e)
	}
	k.sort()
}

func (k *refKernel) idle(id uint32) {
	if e := k.srcs[id]; e.queued {
		e.queued = false
		k.q = slices.DeleteFunc(k.q, func(x *refEvent) bool { return x == e })
	}
}

func (k *refKernel) sort() {
	sort.Slice(k.q, func(i, j int) bool {
		a, b := k.q[i], k.q[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.ord < b.ord
	})
}

func (k *refKernel) cancel(h int) bool {
	if !k.live(h) {
		return false
	}
	k.hs[h].cancelled = true
	return true
}

// take runs the head: a source in place, an event after removing it
// unless it was cancelled.
func (k *refKernel) take() bool {
	e := k.q[0]
	if e.source {
		k.t = e.at
		k.n++
		e.fn()
		return true
	}
	k.q = k.q[1:]
	e.gone = true
	if e.cancelled {
		return false
	}
	k.t = e.at
	k.n++
	e.fn()
	return true
}

func (k *refKernel) step() bool {
	for len(k.q) > 0 {
		if k.take() {
			return true
		}
	}
	return false
}

func (k *refKernel) runUntil(end Time) {
	for len(k.q) > 0 && (k.q[0].at <= end || k.q[0].cancelled) {
		k.take()
	}
	if k.t < end {
		k.t = end
	}
}

// simKernel adapts the Simulator to the driver.
type simKernel struct {
	s  *Simulator
	hs []Handle
}

func (k *simKernel) now() Time         { return k.s.Now() }
func (k *simKernel) pending() int      { return k.s.Pending() }
func (k *simKernel) processed() uint64 { return k.s.Processed }
func (k *simKernel) cancel(h int) bool { return k.hs[h].Cancel() }
func (k *simKernel) live(h int) bool   { return k.hs[h].Pending() }
func (k *simKernel) step() bool        { return k.s.Step() }
func (k *simKernel) runUntil(end Time) { k.s.RunUntil(end) }

func (k *simKernel) at(t Time, fn func()) int {
	k.hs = append(k.hs, k.s.AtFunc(t, func(*Simulator) { fn() }))
	return len(k.hs) - 1
}

func (k *simKernel) register(rank uint32, fn func()) uint32 {
	return k.s.Register(fireFunc(fn), rank)
}

func (k *simKernel) wake(id uint32, t Time) { k.s.Wake(id, t) }
func (k *simKernel) idle(id uint32)         { k.s.Idle(id) }

// fireFunc adapts a function to the Source interface.
type fireFunc func()

func (f fireFunc) Fire(*Simulator) { f() }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// play interprets prog, two bytes per operation, against k and returns
// everything observable: the order events fired in, every Cancel and
// Pending answer, and Now, Processed and Pending after each operation.
// Timestamps are drawn from a range of eight, so ties are the common case.
// Events schedule and cancel from inside their own firing, and the handle
// list keeps every handle ever issued, so cancelling a fired event or one
// whose slot has a new occupant happens as often as cancelling a live one.
// Sources are ranked by the program's argument, not by when they were
// registered, so two of one instant often share a rank.
func play(k kernel, prog []byte) []int64 {
	var out []int64
	handles, sources := 0, uint32(0)
	sched := func(t Time, fn func()) { k.at(t, fn); handles++ }
	pick := func(arg byte) int { return int(arg) % handles }
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%9, prog[pc+1]
		id := int64(pc) << 8
		switch op {
		case 0: // plain event; once in a while at "never"
			d := Duration(arg % 8)
			if arg == 255 {
				d = MaxTime
			}
			sched(k.now().Add(d), func() { out = append(out, id) })
		case 1: // fires and schedules two children, one of them for right now
			sched(k.now().Add(Duration(arg%4)), func() {
				out = append(out, id)
				sched(k.now(), func() { out = append(out, id+1) })
				sched(k.now().Add(Duration(arg>>2%4)), func() { out = append(out, id+2) })
			})
		case 2: // re-arms itself from its own firing, as a link's tx event does
			left := int(arg%4) + 1
			var fire func()
			fire = func() {
				out = append(out, id+int64(left))
				if left--; left > 0 {
					sched(k.now().Add(Duration(arg>>2%4)), fire)
				}
			}
			sched(k.now().Add(Duration(arg>>4)), fire)
		case 3:
			if handles > 0 {
				out = append(out, -1, b2i(k.cancel(pick(arg))))
			}
		case 4:
			out = append(out, -2, b2i(k.step()))
		case 5:
			k.runUntil(k.now().Add(Duration(arg % 16)))
		case 6: // cancels some handle when it fires
			sched(k.now().Add(Duration(arg%8)), func() {
				out = append(out, id, b2i(k.cancel(pick(arg>>3))))
			})
		case 7:
			if handles > 0 {
				out = append(out, -3, b2i(k.live(pick(arg))))
			}
		case 8: // a source, as a link is: registered and woken arg>>2&3 ahead,
			// it fires (arg>>4&1)+1 times arg>>2&3 apart, each time
			// scheduling an ordinary event for right now; or a wake arg>>5
			// ahead (earlier or later than where it waits) or an idle of a
			// registered one, picked by arg>>2
			switch n := sources; {
			case n == 0 || arg%4 == 0:
				var src uint32
				gap, left := Duration(arg>>2&3), int(arg>>4&1)
				src = k.register(uint32(arg>>5), func() {
					out = append(out, id+int64(src))
					sched(k.now(), func() { out = append(out, -4-id) })
					if left--; left >= 0 {
						k.wake(src, k.now().Add(gap))
					} else {
						k.idle(src)
					}
				})
				sources++
				k.wake(src, k.now().Add(gap))
			case arg%4 == 3:
				k.idle(uint32(arg>>2) % n)
			default:
				k.wake(uint32(arg>>2)%n, k.now().Add(Duration(arg>>5)))
			}
		}
		out = append(out, int64(k.now()), int64(k.processed()), int64(k.pending()))
	}
	for k.step() {
	}
	return append(out, int64(k.now()), int64(k.processed()), int64(k.pending()))
}

// diverge plays prog on the kernel and on the reference and reports the
// first place their observable histories differ.
func diverge(t *testing.T, prog []byte) {
	t.Helper()
	got := play(&simKernel{s: New(1)}, prog)
	want := play(&refKernel{}, prog)
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			lo := max(0, i-6)
			t.Fatalf("kernel and reference diverge at observation %d (lengths %d, %d)\nkernel    ...%v\nreference ...%v\nprogram %v",
				i, len(got), len(want), got[lo:min(len(got), i+3)], want[lo:min(len(want), i+3)], prog)
		}
	}
}

// kernelPrograms are the seed corpus: each names the behaviour it is there
// for, and each is also a fuzzing seed.
var kernelPrograms = []struct {
	name string
	prog []byte
}{
	{"ties-fifo", []byte{0, 3, 0, 3, 0, 3, 0, 2, 0, 3, 0, 2, 5, 15}},
	{"nested-from-run", []byte{1, 0, 1, 5, 1, 10, 0, 0, 5, 1, 1, 15, 4, 0, 4, 0}},
	{"cancel-of-fired", []byte{0, 1, 0, 2, 4, 0, 3, 0, 7, 0, 3, 1, 3, 1, 4, 0, 7, 1}},
	{"cancel-of-recycled-slot", []byte{0, 1, 4, 0, 0, 1, 3, 0, 7, 0, 7, 1, 4, 0, 0, 2, 3, 1, 3, 2, 4, 0}},
	{"rearm-self", []byte{2, 3, 2, 7, 0, 1, 4, 0, 3, 0, 4, 0, 4, 0, 3, 1, 5, 15, 2, 19}},
	{"cancel-from-run", []byte{0, 4, 0, 4, 6, 8, 6, 3, 0, 4, 6, 20, 5, 4, 3, 2, 5, 15}},
	{"cancelled-head-past-end", []byte{0, 7, 0, 6, 3, 1, 5, 2, 7, 1, 7, 0, 5, 15}},
	{"never", []byte{0, 255, 0, 1, 4, 0, 1, 3, 5, 15, 0, 255, 2, 255, 4, 0, 4, 0}},
	// The programs named for lanes, deliveries and first-ranked events were
	// written for the fixed-delay FIFO lanes that once sat beside the heap
	// and for the events ranked first in their instant that sources
	// replaced. Each still pins a case of the one heap, and the
	// first-ranked ones now drive sources.
	//
	// Repeated delays interleaved with others.
	{"lane-claimed-on-second-sighting", []byte{0, 3, 0, 1, 0, 3, 0, 3, 0, 2, 4, 0, 0, 3, 5, 15}},
	// Four events tie at time 2, scheduled from two instants; they fire in
	// scheduling order.
	{"lane-head-ties-heap-top", []byte{0, 2, 0, 2, 0, 2, 5, 1, 0, 1, 4, 0, 4, 0, 4, 0, 4, 0}},
	// Ties at time 4 scheduled from two instants at two delays.
	{"lane-heads-tie", []byte{0, 2, 0, 2, 0, 4, 0, 4, 5, 2, 0, 2, 0, 2, 4, 0, 4, 0, 4, 0, 4, 0}},
	// A cancel among four events of one instant.
	{"cancel-inside-lane", []byte{0, 5, 0, 5, 0, 5, 0, 5, 3, 2, 7, 2, 5, 15, 3, 3}},
	// Handles 2 and 3 are alone at time 10 when 2 is cancelled; RunUntil(8)
	// must drop it as the queue's head and keep 3.
	{"cancelled-lane-head-past-end", []byte{0, 7, 0, 7, 5, 3, 0, 7, 0, 7, 0, 1, 4, 0, 4, 0, 4, 0, 3, 2, 5, 1, 7, 2, 7, 3, 5, 15}},
	// Delays 3 and 5 alternate across instants.
	{"lane-rekeyed-after-draining", []byte{0, 3, 0, 3, 5, 15, 0, 5, 0, 5, 0, 3, 0, 3, 0, 5, 0, 1, 5, 15}},
	// Ten recurring delays and events that re-arm themselves.
	{"more-delays-than-lanes", []byte{0, 7, 0, 7, 0, 6, 0, 6, 0, 5, 0, 5, 0, 4, 0, 4, 0, 3, 0, 3, 0, 2, 0, 2, 0, 1, 0, 1, 0, 0, 0, 0,
		2, 0x90, 2, 0x80, 2, 0x90, 2, 0x80, 2, 0x90, 2, 0x80, 0, 7, 0, 1, 5, 8, 2, 0x80, 0, 1, 5, 15}},
	// The heap grows to 190 events while it drains: 30 of 60 are gone when
	// 80 more arrive.
	{"lane-ring-grows-wrapped", slices.Concat(bytes.Repeat([]byte{0, 5}, 60), bytes.Repeat([]byte{4, 0}, 30),
		bytes.Repeat([]byte{0, 5, 0, 1}, 80), []byte{3, 100, 5, 15})},
	// Events at MaxTime scheduled from different instants.
	{"never-in-lanes", []byte{0, 255, 0, 255, 0, 255, 5, 5, 0, 255, 0, 255, 0, 1, 0, 1, 4, 0, 3, 1, 4, 0, 4, 0, 4, 0}},
	// A source woken at 2 fires before the ordinary event of 2 scheduled
	// ahead of it, then wakes itself for 4 from its own fire, as a link
	// does for its next delivery.
	{"delivery-before-ordinary", []byte{0, 2, 8, 24, 4, 0, 4, 0, 5, 15}},
	// Two sources of one rank and instant fire in order of id.
	{"deliveries-in-id-order", []byte{8, 100, 8, 100, 5, 15}},
	// Two ordinary events wait at time 3 when a source wakes for 3; it
	// fires ahead of both.
	{"first-rank-behind-lane-tail", []byte{0, 3, 0, 3, 8, 12, 5, 15}},
	// A source re-woken earlier than it waits fires there, and RunUntil
	// then drops a cancelled event at the head past its end.
	{"cancelled-first-rank-head", []byte{8, 5, 8, 5, 0, 6, 3, 0, 5, 2, 7, 0, 7, 1, 3, 1, 5, 1, 5, 15}},
	// A source woken at 2 fires before the ordinary event scheduled at 2
	// ahead of it.
	{"source-before-ordinary", []byte{0, 2, 8, 8, 4, 0, 4, 0, 5, 15}},
	// Three sources woken at 1, ranked 3, 1 and 1: the rank-1 ones fire
	// first, in order of registration.
	{"sources-of-one-instant-in-rank-order", []byte{8, 100, 8, 36, 8, 36, 5, 15}},
	// The head source (id 1, at 2) is woken later, to 7, and the other
	// (id 0, at 3) earlier, to 1.
	{"rewake-of-queued-head", []byte{8, 12, 8, 8, 8, 229, 8, 34, 4, 0, 5, 15}},
	// The head source is idled, the other fires, and the first is woken
	// again.
	{"idle-of-head", []byte{8, 8, 8, 12, 8, 3, 4, 0, 8, 33, 5, 15}},
	// RunUntil stops at 2 short of a source waiting at 3.
	{"run-until-short-of-source", []byte{8, 12, 0, 1, 5, 2, 4, 0, 5, 15}},
}

// TestKernelMatchesReference drives the event kernel and the reference
// scheduler with the same programs: the named ones, then random ones long
// enough for the heap to reach a few levels and the free list to turn over.
func TestKernelMatchesReference(t *testing.T) {
	for _, c := range kernelPrograms {
		t.Run(c.name, func(t *testing.T) { diverge(t, c.prog) })
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 300; i++ {
			prog := make([]byte, 2*(1+rng.Intn(400)))
			rng.Read(prog)
			if i%3 == 0 {
				// Mostly scheduling: a deep queue before anything drains.
				for pc := 0; pc < len(prog)/2; pc += 2 {
					prog[pc] %= 3
				}
			}
			diverge(t, prog)
		}
	})
}

// FuzzKernelOrder is the same comparison with the fuzzer choosing the
// program: go test -fuzz=FuzzKernelOrder ./internal/sim
func FuzzKernelOrder(f *testing.F) {
	for _, c := range kernelPrograms {
		f.Add(c.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("the reference sorts after every insert")
		}
		diverge(t, prog)
	})
}
