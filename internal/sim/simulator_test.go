package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.AtFunc(30, func(*Simulator) { got = append(got, 3) })
	s.AtFunc(10, func(*Simulator) { got = append(got, 1) })
	s.AtFunc(20, func(*Simulator) { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.AtFunc(100, func(*Simulator) { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events ran out of order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	count := 0
	var tick func(*Simulator)
	tick = func(sm *Simulator) {
		count++
		if count < 5 {
			sm.AfterFunc(10, tick)
		}
	}
	s.AfterFunc(10, tick)
	s.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != 50 {
		t.Errorf("Now() = %v, want 50", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	h := s.AtFunc(10, func(*Simulator) { ran = true })
	if !h.Pending() {
		t.Fatal("handle should be pending before run")
	}
	if !h.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if h.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New(1)
	h := s.AtFunc(10, func(*Simulator) {})
	s.Run()
	if h.Pending() {
		t.Fatal("fired event still pending")
	}
	if h.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.AtFunc(100, func(sm *Simulator) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		sm.At(50, EventFunc(func(*Simulator) {}))
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.AtFunc(at, func(*Simulator) { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if s.Now() != 25 {
		t.Errorf("Now() = %v, want 25", s.Now())
	}
	s.Run()
	if len(fired) != 4 {
		t.Errorf("after Run, fired %v, want all 4", fired)
	}
}

// TestRunUntilBoundary: RunUntil(end) is inclusive — an event scheduled
// exactly at end fires, and one at end+1 stays queued.
func TestRunUntilBoundary(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{25, 26} {
		at := at
		s.AtFunc(at, func(*Simulator) { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if len(fired) != 1 || fired[0] != 25 {
		t.Errorf("fired %v, want exactly the event at end=25", fired)
	}
	if s.Now() != 25 {
		t.Errorf("Now() = %v, want 25", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want the end+1 event still queued", s.Pending())
	}
}

// TestRunUntilDrainsCancelledHeadPastEnd: a cancelled event at the head
// of the queue is discarded by RunUntil even when its timestamp is past
// end, so the queue does not accumulate dead nodes across epochs.
func TestRunUntilDrainsCancelledHeadPastEnd(t *testing.T) {
	s := New(1)
	h := s.AtFunc(50, func(*Simulator) { t.Error("cancelled event ran") })
	live := false
	s.AtFunc(60, func(*Simulator) { live = true })
	h.Cancel()
	s.RunUntil(20)
	if s.Now() != 20 {
		t.Errorf("Now() = %v, want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want cancelled head drained and live event kept", s.Pending())
	}
	s.Run()
	if !live {
		t.Error("live event past end never ran")
	}
}

func TestRunUntilSkipsCancelled(t *testing.T) {
	s := New(1)
	h := s.AtFunc(10, func(*Simulator) { t.Fatal("cancelled event ran") })
	h.Cancel()
	s.RunUntil(100)
	if s.Now() != 100 {
		t.Errorf("Now() = %v, want 100", s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var vals []int64
		var step func(*Simulator)
		n := 0
		step = func(sm *Simulator) {
			vals = append(vals, sm.Rand().Int63n(1000), int64(sm.Now()))
			n++
			if n < 100 {
				sm.AfterFunc(Duration(sm.Rand().Int63n(50)+1), step)
			}
		}
		s.AfterFunc(1, step)
		s.Run()
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Errorf("Second.Seconds() = %v", Second.Seconds())
	}
	if Microsecond.Micros() != 1 {
		t.Errorf("Microsecond.Micros() = %v", Microsecond.Micros())
	}
	if FromStd(time.Millisecond) != Millisecond {
		t.Errorf("FromStd(1ms) = %v", FromStd(time.Millisecond))
	}
	if got := FromSeconds(1.5); got != 3*Second/2 {
		t.Errorf("FromSeconds(1.5) = %v", got)
	}
	if got := FromMicros(15); got != 15*Microsecond {
		t.Errorf("FromMicros(15) = %v", got)
	}
	if (2 * Second).Std() != 2*time.Second {
		t.Errorf("Std() = %v", (2 * Second).Std())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{2 * Second, "2.000000s"},
		{3 * Millisecond, "3.000ms"},
		{15 * Microsecond, "15.000us"},
		{120 * Nanosecond, "120ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTxTime(t *testing.T) {
	// 1500 bytes at 100 Gbps = 120 ns exactly.
	if got := (100 * Gbps).TxTime(1500); got != 120*Nanosecond {
		t.Errorf("TxTime(1500) @100G = %v, want 120ns", got)
	}
	// One byte at 100 Gbps = 80 ps.
	if got := (100 * Gbps).TxTime(1); got != 80*Picosecond {
		t.Errorf("TxTime(1) @100G = %v, want 80ps", got)
	}
	// Zero-rate link never transmits.
	if got := Rate(0).TxTime(1); got != MaxTime {
		t.Errorf("TxTime at rate 0 = %v, want MaxTime", got)
	}
	// Large transfer must not overflow: 10 GiB at 1 Gbps is 85.899345920 s.
	wantLarge := Duration(int64(10<<30) * 8 * 1000) // ps = bits/1e9 * 1e12
	if got := (1 * Gbps).TxTime(10 << 30); got != wantLarge {
		t.Errorf("large TxTime = %v, want %v", got, wantLarge)
	}
}

func TestBytesIn(t *testing.T) {
	if got := (100 * Gbps).BytesIn(120 * Nanosecond); got != 1500 {
		t.Errorf("BytesIn(120ns) @100G = %d, want 1500", got)
	}
	if got := (8 * BitPerSecond).BytesIn(2 * Second); got != 2 {
		t.Errorf("BytesIn(2s) @8bps = %d, want 2", got)
	}
	if got := (100 * Gbps).BytesIn(0); got != 0 {
		t.Errorf("BytesIn(0) = %d, want 0", got)
	}
}

// TxTime then BytesIn must round-trip: transmitting for exactly TxTime(n)
// delivers at least n bytes, and one picosecond less delivers fewer.
func TestTxTimeBytesInRoundTrip(t *testing.T) {
	f := func(rateG uint16, kb uint16) bool {
		r := Rate(int64(rateG%400)+1) * Gbps
		n := int(kb%64)*1024 + 1
		d := r.TxTime(n)
		return r.BytesIn(d) >= int64(n) && r.BytesIn(d-1) < int64(n)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Event timestamps must be non-decreasing across an arbitrary schedule.
func TestMonotonicClock(t *testing.T) {
	f := func(seeds []uint8) bool {
		s := New(7)
		last := Time(-1)
		ok := true
		for _, v := range seeds {
			s.AtFunc(Time(v), func(sm *Simulator) {
				if sm.Now() < last {
					ok = false
				}
				last = sm.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AfterFunc(Duration(i%1000), func(*Simulator) {})
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

// TestHandleStaleAfterRecycle: a node recycled through the free list must
// not let a stale Handle cancel (or report pending for) the event that now
// occupies it.
func TestHandleStaleAfterRecycle(t *testing.T) {
	s := New(1)
	h1 := s.AtFunc(10, func(*Simulator) {})
	s.Run() // fires h1; its node goes to the free list

	ran := false
	h2 := s.AtFunc(20, func(*Simulator) { ran = true })
	if h2.idx != h1.idx || h2.gen == h1.gen {
		t.Fatalf("test premise broken: slot was not recycled (h1 %d/%d, h2 %d/%d)", h1.idx, h1.gen, h2.idx, h2.gen)
	}
	if h1.Pending() {
		t.Error("stale handle reports pending")
	}
	if h1.Cancel() {
		t.Error("stale handle cancelled the recycled node's new event")
	}
	if !h2.Pending() {
		t.Error("fresh handle not pending after stale Cancel attempt")
	}
	s.Run()
	if !ran {
		t.Error("recycled node's event did not run")
	}

	// A slot's gen cannot wrap in a run (2^32 firings of one slot), but if
	// it did, a handle from 2^32 occupants ago would match again. Push the
	// slot to the edge: its last occupant must still fire, the slot must
	// then be retired rather than reused, and h1, whose gen the wrapped
	// counter now equals, must stay dead.
	s.slots[h1.idx].gen = math.MaxUint32
	h3 := s.AtFunc(30, func(*Simulator) {})
	if h3.idx != h1.idx || h3.gen != math.MaxUint32 {
		t.Fatalf("test premise broken: h3 = slot %d gen %d", h3.idx, h3.gen)
	}
	s.Run()
	if g := s.slots[h1.idx].gen; g != h1.gen {
		t.Fatalf("test premise broken: gen = %d after the wrap, want h1's %d", g, h1.gen)
	}
	if h1.Pending() || h1.Cancel() || h3.Pending() {
		t.Error("a handle on a wrapped slot came back to life")
	}
	if h4 := s.AtFunc(40, func(*Simulator) {}); h4.idx == h1.idx {
		t.Error("slot reused after its gen wrapped")
	}
}

// TestAfterSaturatesAtMaxTime: After(MaxTime), which is what a zero-rate
// link's TxTime asks for, means "never", not a wrapped negative time and a
// panic about scheduling in the past.
func TestAfterSaturatesAtMaxTime(t *testing.T) {
	s := New(1)
	s.RunUntil(10)
	never := s.After(Rate(0).TxTime(1500), EventFunc(func(*Simulator) {}))
	s.After(MaxTime-5, EventFunc(func(*Simulator) {}))
	soon := false
	s.AfterFunc(5, func(*Simulator) { soon = true })
	s.RunUntil(Second)
	if !soon || !never.Pending() || s.Pending() != 2 {
		t.Errorf("soon = %v, never.Pending = %v, Pending = %d; want true, true, 2", soon, never.Pending(), s.Pending())
	}
	s.Run()
	if s.Now() != MaxTime {
		t.Errorf("Now() = %d after the MaxTime events ran, want MaxTime", int64(s.Now()))
	}
}

// TestStepNoAllocs: in steady state the schedule/fire cycle allocates
// nothing — the slab, the free list and the heap's backing array have all
// reached their size — and neither does a source's fire and wake.
func TestStepNoAllocs(t *testing.T) {
	for _, pending := range []int{16, 256} {
		s := newHold(pending)
		if allocs := testing.AllocsPerRun(5000, func() { s.Step() }); allocs != 0 {
			t.Errorf("pending=%d: Step allocates %v per event, want 0", pending, allocs)
		}
	}
	s := newSources()
	if allocs := testing.AllocsPerRun(5000, func() { s.Step() }); allocs != 0 {
		t.Errorf("sources: Step allocates %v per event, want 0", allocs)
	}
}

// TestHandleStaleAfterCancelRecycle: same, when the original occupant was
// cancelled (recycled from the cancel path) rather than fired.
func TestHandleStaleAfterCancelRecycle(t *testing.T) {
	s := New(1)
	h1 := s.AtFunc(10, func(*Simulator) { t.Error("cancelled event ran") })
	h1.Cancel()
	s.Run() // discards + recycles the cancelled node

	ran := false
	h2 := s.AtFunc(20, func(*Simulator) { ran = true })
	if h1.Cancel() || h1.Pending() {
		t.Error("stale handle still controls recycled node")
	}
	s.Run()
	if !ran || h2.Pending() {
		t.Errorf("ran = %v, h2.Pending = %v", ran, h2.Pending())
	}
}

// TestRunUntilOnlyCancelled: RunUntil must drain a queue holding nothing
// but cancelled events (recycling them) and still advance the clock.
func TestRunUntilOnlyCancelled(t *testing.T) {
	s := New(1)
	var hs []Handle
	for i := Time(10); i <= 50; i += 10 {
		hs = append(hs, s.AtFunc(i, func(*Simulator) { t.Error("cancelled event ran") }))
	}
	for _, h := range hs {
		if !h.Cancel() {
			t.Fatal("Cancel failed")
		}
	}
	s.RunUntil(100)
	if s.Now() != 100 {
		t.Errorf("Now() = %v, want 100", s.Now())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", s.Pending())
	}
	if len(s.free) != len(hs) {
		t.Errorf("free list has %d nodes, want %d", len(s.free), len(hs))
	}
}

// TestHeapOrderRandom stress-tests the monomorphic event heap: a random
// mix of schedules and cancellations must fire in strict (at, seq) order.
func TestHeapOrderRandom(t *testing.T) {
	s := New(99)
	rng := s.Rand()
	type key struct {
		at  Time
		seq int
	}
	var fired []key
	var handles []Handle
	for i := 0; i < 5000; i++ {
		i := i
		at := Time(rng.Intn(1000))
		handles = append(handles, s.AtFunc(at, func(*Simulator) {
			fired = append(fired, key{at, i})
		}))
	}
	cancelled := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		j := rng.Intn(len(handles))
		if handles[j].Cancel() {
			cancelled[j] = true
		}
	}
	s.Run()
	if want := 5000 - len(cancelled); len(fired) != want {
		t.Fatalf("fired %d events, want %d", len(fired), want)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("out of order at %d: %v then %v", i, a, b)
		}
	}
}

// TestFreeListReuse: steady-state schedule/run cycles must reuse nodes
// rather than allocate.
func TestFreeListReuse(t *testing.T) {
	s := New(1)
	// Prime the free list.
	for i := 0; i < 8; i++ {
		s.AfterFunc(1, func(*Simulator) {})
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		s.AfterFunc(1, func(*Simulator) {})
		s.Run()
	})
	// EventFunc closures may allocate; the scheduled node must not. Allow
	// at most the closure conversion.
	if allocs > 1 {
		t.Errorf("AllocsPerRun = %v, want <= 1 (nodes must be recycled)", allocs)
	}
}
