package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// loopEvent is a self-rescheduling event: each firing re-arms the same
// node, so a steady population of them exercises the schedule/fire cycle
// (heap push, pop, free-list recycle) with no per-event allocation.
type loopEvent struct{ gap Duration }

func (e *loopEvent) Run(s *Simulator) { s.After(e.gap, e) }

// BenchmarkSimLoop measures raw event throughput of the simulator core:
// one Step per iteration against a heap held at a fixed depth. The
// depth=16 case is dominated by push/pop constant factors; depth=1024
// adds the log-depth sift work seen in large cluster runs.
func BenchmarkSimLoop(b *testing.B) {
	for _, depth := range []int{16, 1024} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			s := New(1)
			evs := make([]loopEvent, depth)
			for i := range evs {
				// Distinct gaps keep the heap genuinely ordered rather
				// than degenerating into same-timestamp FIFO.
				evs[i].gap = Duration(i + 1)
				s.After(evs[i].gap, &evs[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "events/s")
			}
		})
	}
}

// holdEvent is the classic hold model's event: when it fires it takes the
// next exponential gap from a fixed-seed table and re-arms itself, so the
// heap's depth is constant and every key it compares is as good as random.
// The gaps come from a table so that the RNG's cost (and its branchy
// ziggurat) stays out of the measurement; each event walks the shared table
// from its own offset.
type holdEvent struct {
	gaps []Duration
	i    int
}

func (e *holdEvent) Run(s *Simulator) {
	e.i++
	s.After(e.gaps[e.i&(len(e.gaps)-1)], e)
}

// newHold returns a simulator with pending hold events in steady state.
func newHold(pending int) *Simulator {
	s := New(1)
	rng := rand.New(rand.NewSource(42))
	const mean = 1000
	gaps := make([]Duration, 1<<14)
	for i := range gaps {
		gaps[i] = Duration(rng.ExpFloat64() * mean)
	}
	evs := make([]holdEvent, pending)
	for i := range evs {
		evs[i] = holdEvent{gaps: gaps, i: i * 31}
		s.After(gaps[i], &evs[i])
	}
	for i := 0; i < 4*pending; i++ {
		s.Step() // past the transient of the initial schedule
	}
	return s
}

// BenchmarkSimHold is the hold model (pop the earliest event, reschedule it
// at now + Exp(mean)) at the pending-event counts cluster runs have.
// BenchmarkSimLoop's round-robin gaps make every sift compare predictable;
// here none is, which is what a real run pays.
func BenchmarkSimHold(b *testing.B) {
	for _, pending := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := newHold(pending)
			if allocs := testing.AllocsPerRun(1000, func() { s.Step() }); allocs != 0 {
				b.Fatalf("Step allocates %v per event in steady state, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// linkSource is a source that wakes itself gap after each firing, as a
// link with a backlog does for its next delivery.
type linkSource struct {
	id  uint32
	gap Duration
}

func (l *linkSource) Fire(s *Simulator) { s.Wake(l.id, s.Now().Add(l.gap)) }

// newSources returns a simulator in steady state with the shape of a
// sim-large-rpc run: 16 links delivering back to back, each an MTU's, a
// tail packet's or an ack's serialisation at 100 G apart, and 8 ordinary
// events re-arming at random gaps of that size, as generators and RTOs do.
func newSources() *Simulator {
	s := New(1)
	delays := []Duration{120_000, 99_200, 5_120}
	links := make([]linkSource, 16)
	for i := range links {
		links[i] = linkSource{s.Register(&links[i], uint32(i)), delays[i%len(delays)]}
		s.Wake(links[i].id, Duration(i)*977)
	}
	rng := rand.New(rand.NewSource(42))
	gaps := make([]Duration, 1<<10)
	for i := range gaps {
		gaps[i] = Duration(rng.ExpFloat64() * 150_000)
	}
	random := make([]holdEvent, 8)
	for i := range random {
		random[i] = holdEvent{gaps: gaps, i: i * 31}
		s.After(gaps[i], &random[i])
	}
	for i := 0; i < 64*len(links); i++ {
		s.Step()
	}
	return s
}

// BenchmarkSimSources times the path a packet run takes: nearly every step
// is a link's delivery, a source that fires and re-keys its node in place.
func BenchmarkSimSources(b *testing.B) {
	s := newSources()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
