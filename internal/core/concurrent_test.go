package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// TestConcurrentAdmitObserve drives admits and observes from many
// goroutines against overlapping (dst, class) channels and checks the
// invariants the channel table must hold under contention: every decision
// is counted exactly once, every observation lands in exactly one SLO
// counter, and no admit probability ever leaves [floor, 1]. Run under
// -race this is the controller's data-race check.
func TestConcurrentAdmitObserve(t *testing.T) {
	ct := MustNew(Defaults3(target(), 2*target())) // wall clock
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				dst := (w + i) % 4
				class := qos.Class(i % 2)
				ct.Admit(dst, class, 1)
				// Alternate misses and compliant completions so p moves in
				// both directions while others read it.
				rnl := 100 * target()
				if i%3 == 0 {
					rnl = target() / 2
				}
				ct.Observe(dst, class, rnl, 1)
				if p := ct.AdmitProbability(dst, class); p < ct.Config().Floor-1e-12 || p > 1+1e-12 {
					t.Errorf("p_admit = %v out of [%v, 1]", p, ct.Config().Floor)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := ct.Stats()
	const total = workers * perWorker
	if got := st.Admitted + st.Downgraded + st.Dropped; got != total {
		t.Errorf("decisions %d (admitted %d + downgraded %d + dropped %d), want %d",
			got, st.Admitted, st.Downgraded, st.Dropped, total)
	}
	if got := st.SLOMet + st.SLOMisses; got != total {
		t.Errorf("observations %d (met %d + misses %d), want %d",
			got, st.SLOMet, st.SLOMisses, total)
	}
	// Every touched channel still reports a sane probability, and the
	// reporting surface sees all of them.
	seen := 0
	ct.ForEachState(ct.Clock().Now(), func(dst int, class qos.Class, p float64, _ sim.Duration) {
		seen++
		if p < ct.Config().Floor-1e-12 || p > 1+1e-12 {
			t.Errorf("final p_admit(%d, %v) = %v", dst, class, p)
		}
	})
	if seen != 8 { // 4 dsts × 2 classes
		t.Errorf("ForEachState visited %d channels, want 8", seen)
	}
}

// TestConcurrentAlgorithm1 drives concurrent ObserveAt calls onto shared
// channels on a ManualClock controller and checks the two properties its
// updates must keep under contention: at most one additive increase per
// increment window, and no lost update, so every size-proportional
// decrement lands. α and β are powers of two and p stays clear of both
// clamps, so every p the test can reach is exact and the expected value
// does not depend on the order the updates land in. The applied order is
// read back from the flight records (every record kept), each of which
// carries the value its own update left.
//
// Each round has three phases, each started together on every worker:
// SLO misses only, whose records must chain from the phase's starting p
// down by β·size each; SLO-met completions only, at one instant in a
// freshly opened window, which must raise p by exactly α; and both at
// once in the next window, which must land on p + α - β·Σsize.
func TestConcurrentAlgorithm1(t *testing.T) {
	cfg := Defaults3(target(), 2*target())
	cfg.Alpha, cfg.Beta = 1.0/64, 1.0/1024
	ct, err := NewWithClock(cfg, &ManualClock{})
	if err != nil {
		t.Fatal(err)
	}
	ring := flight.NewRing(flight.Config{Records: 1 << 14, SampleAdmits: 1})
	ct.SetFlight(ring, 0)
	const (
		workers, channels, rounds = 4, 16, 100
		missSize                  = 2 // MTUs per miss; 4 per worker per channel per phase
	)
	window := ct.windows[qos.High]
	met, miss := target()/2, 100*missSize*target()
	p := func(dst int) float64 { return ct.AdmitProbability(dst, qos.High) }
	// phase runs f on every worker at once and returns the ring's records.
	phase := func(f func(w int)) []flight.Record {
		var ready, done sync.WaitGroup
		var start atomic.Bool
		for w := 0; w < workers; w++ {
			ready.Add(1)
			done.Add(1)
			go func(w int) {
				defer done.Done()
				ready.Done()
				for !start.Load() {
					runtime.Gosched()
				}
				f(w)
			}(w)
		}
		ready.Wait()
		start.Store(true)
		done.Wait()
		return ring.Snapshot(true)
	}
	byChannel := func(recs []flight.Record, dst int) (vals []float64) {
		for _, r := range recs {
			if r.Kind == flight.KindComplete && int(r.Peer) == dst {
				vals = append(vals, r.PAdmit)
			}
		}
		return vals
	}
	// Start every channel at 1/2, clear of both clamps.
	for dst := 0; dst < channels; dst++ {
		ct.ObserveAt(0, dst, qos.High, 1024*target(), 512)
	}
	ring.Snapshot(true)
	dec := cfg.Beta * missSize
	for r := 1; r <= rounds; r++ {
		at := sim.Time(4*r) * window // a window opened at least one window ago
		var before [channels]float64
		for dst := range before {
			before[dst] = p(dst)
		}
		recs := phase(func(w int) {
			for i := 0; i < 2; i++ {
				for dst := 0; dst < channels; dst++ {
					ct.ObserveAt(at, dst, qos.High, miss, missSize)
				}
			}
		})
		for dst := 0; dst < channels; dst++ {
			vals := byChannel(recs, dst)
			slices.Sort(vals)
			slices.Reverse(vals)
			want := before[dst]
			for i, v := range vals {
				if want -= dec; v != want {
					t.Fatalf("round %d channel %d: miss %d of the applied order left p = %v, want %v (lost or misrecorded update)", r, dst, i, v, want)
				}
			}
			if len(vals) != 2*workers || p(dst) != want {
				t.Fatalf("round %d channel %d: %d miss records, p = %v, want %d and %v", r, dst, len(vals), p(dst), 2*workers, want)
			}
			before[dst] = want
		}

		recs = phase(func(w int) {
			for i := 0; i < 2; i++ {
				for dst := 0; dst < channels; dst++ {
					ct.ObserveAt(at, dst, qos.High, met, 1)
				}
			}
		})
		for dst := 0; dst < channels; dst++ {
			want := before[dst] + cfg.Alpha
			for _, v := range byChannel(recs, dst) {
				if v != before[dst] && v != want {
					t.Fatalf("round %d channel %d: a met completion left p = %v; only %v or %v is one increase", r, dst, v, before[dst], want)
				}
			}
			if p(dst) != want {
				t.Fatalf("round %d channel %d: p = %v after one window of met completions, want exactly one increase to %v", r, dst, p(dst), want)
			}
			before[dst] = want
		}

		phase(func(w int) {
			for i := 0; i < 2; i++ {
				for dst := 0; dst < channels; dst++ {
					ct.ObserveAt(at+2*window, dst, qos.High, met, 1)
					ct.ObserveAt(at+2*window, dst, qos.High, miss, missSize)
				}
			}
		})
		for dst := 0; dst < channels; dst++ {
			if want := before[dst] + cfg.Alpha - 2*workers*dec; p(dst) != want {
				t.Fatalf("round %d channel %d: p = %v after mixed completions, want %v", r, dst, p(dst), want)
			}
		}
	}
	if st := ct.Stats(); st.SLOMet != rounds*channels*workers*4 || st.SLOMisses != channels+rounds*channels*workers*4 {
		t.Errorf("stats %+v", st)
	}
}

// TestConcurrentChannelGrowth touches ever-larger destinations from
// several goroutines, so a fresh controller's channel table is copied
// into larger ones again and again, while others record SLO misses on
// channel (0, QoSh) and one walks ForEachState; each round starts every
// goroutine together. β is a power of two, so channel 0 must end exactly
// β·size below 1 per miss: an update lost across a copy, or a state the
// copy failed to carry, shows as a different value. Every grower's
// channel must keep its own miss, and every ForEachState pass must visit
// strictly increasing (dst, class) pairs.
func TestConcurrentChannelGrowth(t *testing.T) {
	cfg := Defaults3(target(), 2*target())
	cfg.Beta = 1.0 / 1024
	const (
		rounds             = 50
		growers, observers = 2, 2
		dsts               = 512 // destinations past 0, spread over the growers
		misses             = 256 // per observer: p stays above the floor
	)
	miss := 100 * target()
	for r := 0; r < rounds; r++ {
		ct, err := NewWithClock(cfg, &ManualClock{})
		if err != nil {
			t.Fatal(err)
		}
		var ready, growing, walking sync.WaitGroup
		var start atomic.Bool
		goTogether := func(wg *sync.WaitGroup, f func()) {
			ready.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ready.Done()
				for !start.Load() {
					runtime.Gosched()
				}
				f()
			}()
		}
		for g := 0; g < growers; g++ {
			goTogether(&growing, func() {
				for dst := 1 + g; dst <= dsts; dst += growers {
					ct.ObserveAt(0, dst, qos.Medium, miss, 1)
				}
			})
		}
		for o := 0; o < observers; o++ {
			goTogether(&growing, func() {
				for i := 0; i < misses; i++ {
					ct.ObserveAt(0, 0, qos.High, miss, 1)
				}
			})
		}
		var stop atomic.Bool
		goTogether(&walking, func() {
			for !stop.Load() {
				lastDst, lastClass := -1, qos.Class(0)
				ct.ForEachState(0, func(dst int, class qos.Class, _ float64, _ sim.Duration) {
					if dst < lastDst || dst == lastDst && class <= lastClass {
						t.Errorf("ForEachState visited (%d, %v) after (%d, %v)", dst, class, lastDst, lastClass)
					}
					lastDst, lastClass = dst, class
				})
			}
		})
		ready.Wait()
		start.Store(true)
		growing.Wait()
		stop.Store(true)
		walking.Wait()
		if got, want := ct.AdmitProbability(0, qos.High), 1-observers*misses*cfg.Beta; got != want {
			t.Fatalf("round %d: channel 0 ends at p = %v, want %v after %d misses", r, got, want, observers*misses)
		}
		for dst := 1; dst <= dsts; dst++ {
			if got, want := ct.AdmitProbability(dst, qos.Medium), 1-cfg.Beta; got != want {
				t.Fatalf("round %d: channel (%d, QoSm) ends at p = %v, want %v", r, dst, got, want)
			}
		}
		seen := 0
		ct.ForEachState(0, func(int, qos.Class, float64, sim.Duration) { seen++ })
		if seen != 1+dsts {
			t.Fatalf("round %d: ForEachState visited %d channels, want %d", r, seen, 1+dsts)
		}
	}
}

// TestConcurrentReset interleaves Reset with admits and observes: state
// recreation must never lose the [floor, 1] invariant or crash.
func TestConcurrentReset(t *testing.T) {
	ct := MustNew(Defaults3(target(), 2*target()))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ct.Admit(i%3, qos.High, 1)
				ct.Observe(i%3, qos.High, 100*target(), 1)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		ct.Reset()
		if p := ct.AdmitProbability(0, qos.High); p < ct.Config().Floor-1e-12 || p > 1+1e-12 {
			t.Errorf("p_admit = %v after reset", p)
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentQuota races Grant/Revoke from a control plane against
// quota checks on serving goroutines — the QuotaServer/QuotaClient
// concurrency contract.
func TestConcurrentQuota(t *testing.T) {
	q := NewQuotaServer(map[qos.Class]float64{qos.High: 1e9, qos.Medium: 1e9})
	if err := q.Grant("tenant", qos.High, 1e6); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := q.Client("tenant")
			now := sim.Time(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				now += sim.Microsecond
				c.CheckAt(now, qos.High, 100)
				c.Check(qos.High, 100)
			}
		}(w)
	}
	for i := 0; i < 500; i++ {
		if err := q.Grant("tenant", qos.High, 1000); err != nil {
			t.Error(err)
			break
		}
		q.Revoke("tenant", qos.High, 1000)
		if r := q.GrantedRate("tenant", qos.High); r < 0 {
			t.Errorf("granted rate went negative: %v", r)
			break
		}
		q.Remaining(qos.High)
	}
	close(stop)
	wg.Wait()
	if got := q.GrantedRate("tenant", qos.High); got != 1e6 {
		t.Errorf("final granted rate %v, want 1e6", got)
	}
}

// TestMetricsSamplerAllocFree pins the satellite fix: steady-state metric
// sampling must not allocate (the per-sample fmt.Sprintf is cached per
// (host, dst, class) key).
func TestMetricsSamplerAllocFree(t *testing.T) {
	s := sim.New(1)
	ct := newCtlSim(t, s)
	for dst := 0; dst < 4; dst++ {
		ct.Observe(dst, qos.High, 100*target(), 1)
		ct.Observe(dst, qos.Medium, 100*target(), 1)
	}
	sampler := ct.MetricsSampler(3)
	sink := func(string, float64) {}
	sampler(s.Now(), sink) // warm the name cache and scratch buffer
	if allocs := testing.AllocsPerRun(100, func() { sampler(s.Now(), sink) }); allocs != 0 {
		t.Errorf("MetricsSampler allocates %v per sample in steady state, want 0", allocs)
	}
}
