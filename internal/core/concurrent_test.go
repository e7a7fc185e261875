package core

import (
	"sync"
	"testing"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// TestConcurrentAdmitObserve drives admits and observes from many
// goroutines against overlapping (dst, class) channels and checks the
// invariants the sharded state must hold under contention: every decision
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

	st := ct.Stats.Load()
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
