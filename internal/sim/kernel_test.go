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
	// first schedules fn at t ahead of the ordinary events of t (AfterFirst).
	first(t Time, id uint32, fn func()) int
	cancel(h int) bool
	live(h int) bool
	step() bool
	runUntil(end Time)
	pending() int
	processed() uint64
}

// refKernel is the reference the event kernel is checked against: the
// queue is a slice sorted after every append by the rule the package
// comment states, (at, rank, id or seq): first-ranked events by id, then
// ordinary ones in scheduling order. Like the kernel it drops a cancelled
// event only when it reaches the head, so pending() agrees event for
// event.
type refKernel struct {
	t   Time
	n   uint64
	seq uint64
	q   []*refEvent
	hs  []*refEvent
}

type refEvent struct {
	at              Time
	rank            int
	ord             uint64 // id, or seq for the ordinary rank
	fn              func()
	cancelled, gone bool
}

func (k *refKernel) now() Time         { return k.t }
func (k *refKernel) pending() int      { return len(k.q) }
func (k *refKernel) processed() uint64 { return k.n }
func (k *refKernel) live(h int) bool   { return !k.hs[h].gone && !k.hs[h].cancelled }

func (k *refKernel) at(t Time, fn func()) int {
	k.seq++
	return k.add(&refEvent{at: t, rank: 1, ord: k.seq, fn: fn})
}

func (k *refKernel) first(t Time, id uint32, fn func()) int {
	return k.add(&refEvent{at: t, rank: 0, ord: uint64(id), fn: fn})
}

func (k *refKernel) add(e *refEvent) int {
	k.q = append(k.q, e)
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
	k.hs = append(k.hs, e)
	return len(k.hs) - 1
}

func (k *refKernel) cancel(h int) bool {
	if !k.live(h) {
		return false
	}
	k.hs[h].cancelled = true
	return true
}

// take removes the head and runs it unless it was cancelled.
func (k *refKernel) take() bool {
	e := k.q[0]
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

func (k *simKernel) first(t Time, id uint32, fn func()) int {
	k.hs = append(k.hs, k.s.AfterFirst(t-k.s.Now(), id, EventFunc(func(*Simulator) { fn() })))
	return len(k.hs) - 1
}

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
// A first-ranked event's id sorts by the program's argument, not by when it
// was scheduled; a count in its low bits keeps (at, rank, id) unique.
func play(k kernel, prog []byte) []int64 {
	var out []int64
	handles, nfirst := 0, uint32(0)
	sched := func(t Time, fn func()) { k.at(t, fn); handles++ }
	first := func(t Time, arg byte, fn func()) {
		k.first(t, uint32(arg)<<20|nfirst, fn)
		handles++
		nfirst++
	}
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
		case 8: // a delivery; when it fires it schedules an ordinary event for
			// right now and the next delivery, as a link's delivery does
			first(k.now().Add(Duration(arg%8)), arg>>3, func() {
				out = append(out, id)
				sched(k.now(), func() { out = append(out, id+1) })
				first(k.now().Add(Duration(arg>>6)), arg, func() { out = append(out, id+2) })
			})
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
	// The lanes: a delay's first event waits in the heap, its second claims
	// a lane, and the pop order must not show which went where.
	{"lane-claimed-on-second-sighting", []byte{0, 3, 0, 1, 0, 3, 0, 3, 0, 2, 4, 0, 0, 3, 5, 15}},
	// At time 2 wait, by seq: heap, lane, lane, heap. The heap top wins the
	// first tie and the lane head the second.
	{"lane-head-ties-heap-top", []byte{0, 2, 0, 2, 0, 2, 5, 1, 0, 1, 4, 0, 4, 0, 4, 0, 4, 0}},
	// Two lanes' heads at time 4, the later-claimed lane's queued first.
	{"lane-heads-tie", []byte{0, 2, 0, 2, 0, 4, 0, 4, 5, 2, 0, 2, 0, 2, 4, 0, 4, 0, 4, 0, 4, 0}},
	{"cancel-inside-lane", []byte{0, 5, 0, 5, 0, 5, 0, 5, 3, 2, 7, 2, 5, 15, 3, 3}},
	// Handles 2 and 3 are alone in a lane at time 10 when 2 is cancelled;
	// RunUntil(8) must drop it as the queue's head and keep 3.
	{"cancelled-lane-head-past-end", []byte{0, 7, 0, 7, 5, 3, 0, 7, 0, 7, 0, 1, 4, 0, 4, 0, 4, 0, 3, 2, 5, 1, 7, 2, 7, 3, 5, 15}},
	// Delay 3's lane drains and delay 5 takes it over; delay 3 then has to
	// claim another.
	{"lane-rekeyed-after-draining", []byte{0, 3, 0, 3, 5, 15, 0, 5, 0, 5, 0, 3, 0, 3, 0, 5, 0, 1, 5, 15}},
	// Delays 0-7 hold the eight lanes, so recurring delays 8 and 9 stay in
	// the heap, and still fire in order among themselves and the lanes.
	{"more-delays-than-lanes", []byte{0, 7, 0, 7, 0, 6, 0, 6, 0, 5, 0, 5, 0, 4, 0, 4, 0, 3, 0, 3, 0, 2, 0, 2, 0, 1, 0, 1, 0, 0, 0, 0,
		2, 0x90, 2, 0x80, 2, 0x90, 2, 0x80, 2, 0x90, 2, 0x80, 0, 7, 0, 1, 5, 8, 2, 0x80, 0, 1, 5, 15}},
	// A lane's ring doubles while its contents wrap around the end: 30 of
	// 60 events are gone when 80 more arrive.
	{"lane-ring-grows-wrapped", slices.Concat(bytes.Repeat([]byte{0, 5}, 60), bytes.Repeat([]byte{4, 0}, 30),
		bytes.Repeat([]byte{0, 5, 0, 1}, 80), []byte{3, 100, 5, 15})},
	// Events at MaxTime from different instants have different delays, and
	// each delay's lane ends at MaxTime like every other.
	{"never-in-lanes", []byte{0, 255, 0, 255, 0, 255, 5, 5, 0, 255, 0, 255, 0, 1, 0, 1, 4, 0, 3, 1, 4, 0, 4, 0, 4, 0}},
	// A delivery scheduled after an ordinary event of its instant runs
	// before it.
	{"delivery-before-ordinary", []byte{0, 2, 8, 2, 4, 0, 4, 0, 5, 15}},
	// Two deliveries of one instant run in id order, the later-scheduled
	// (id 1) first.
	{"deliveries-in-id-order", []byte{8, 43, 8, 11, 5, 15}},
	// Delay 3's lane ends with an ordinary event at time 3; a delivery at
	// that instant sorts before the tail and must wait in the heap, or it
	// would fire after it.
	{"first-rank-behind-lane-tail", []byte{0, 3, 0, 3, 8, 3, 5, 15}},
	// Two deliveries at time 5, one in the heap and one heading delay 5's
	// lane, are cancelled in turn and dropped by RunUntil short of them.
	{"cancelled-first-rank-head", []byte{8, 5, 8, 5, 0, 6, 3, 0, 5, 2, 7, 0, 7, 1, 3, 1, 5, 1, 5, 15}},
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

// TestRecurringDelaysLeaveHeap is the lanes' claim rule seen from inside: of
// numLanes delays, each one's first event goes to the heap and its second
// claims a lane, and once those first events have fired the heap stays
// empty however the delays are interleaved.
func TestRecurringDelaysLeaveHeap(t *testing.T) {
	s := New(1)
	nop := EventFunc(func(*Simulator) {})
	for d := Duration(1); d <= numLanes; d++ {
		s.After(d*Microsecond, nop)
		s.After(d*Microsecond, nop)
		if heap, all := s.events.live(), s.Pending(); heap != int(d) || all != 2*int(d) {
			t.Fatalf("after delay %d's second use: %d events in the heap, %d pending; want %d, %d", d, heap, all, d, 2*d)
		}
	}
	s.Run()
	for round := 0; round < 3; round++ {
		for d := Duration(numLanes); d >= 1; d-- {
			s.After(d*Microsecond, nop)
			s.After((d+Duration(round))%numLanes*Microsecond+Microsecond, nop)
			if s.events.live() != 0 {
				t.Fatalf("round %d, delay %d: %d events in the heap, want every one in a lane", round, d, s.events.live())
			}
		}
		for i := 0; i < numLanes; i++ {
			s.Step()
		}
	}
	if s.Run(); s.Pending() != 0 || s.Processed != 2*numLanes+3*2*numLanes {
		t.Fatalf("Pending = %d, Processed = %d after draining", s.Pending(), s.Processed)
	}
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
