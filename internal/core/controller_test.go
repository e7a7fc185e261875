package core

import (
	"math"
	"testing"
	"testing/quick"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

func target() sim.Duration { return 2 * sim.Microsecond }

// newCtlSim binds a default controller to the simulator's clock and RNG so
// tests drive virtual time explicitly and draws are deterministic per seed.
func newCtlSim(t *testing.T, s *sim.Simulator) *Controller {
	t.Helper()
	return newCtlCfg(t, Defaults3(target(), 2*target()), s)
}

func newCtlCfg(t *testing.T, cfg Config, s *sim.Simulator) *Controller {
	t.Helper()
	c, err := NewWithClock(cfg, SimClock{S: s})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := Defaults3(target(), 2*target()).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []Config{
		{Levels: 1},
		{Levels: 3, LatencyTargets: []sim.Duration{1, 1}, TargetPercentiles: []float64{99, 99, 0}},
		{Levels: 3, LatencyTargets: []sim.Duration{1, 1, 0}, TargetPercentiles: []float64{99, 99}},
		{Levels: 3, LatencyTargets: []sim.Duration{0, 1, 0}, TargetPercentiles: []float64{99, 99, 0}, Alpha: 0.01, Beta: 0.01},
		{Levels: 3, LatencyTargets: []sim.Duration{1, 1, 0}, TargetPercentiles: []float64{100, 99, 0}, Alpha: 0.01, Beta: 0.01},
		func() Config { c := Defaults3(target(), 2*target()); c.Alpha = 0; return c }(),
		func() Config { c := Defaults3(target(), 2*target()); c.Beta = 2; return c }(),
		func() Config { c := Defaults3(target(), 2*target()); c.Floor = 1; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestIncrementWindow(t *testing.T) {
	cfg := Defaults3(15*sim.Microsecond, 25*sim.Microsecond)
	// 99.9th percentile: window = target × 1000.
	if got, want := cfg.incrementWindow(0), 15*sim.Millisecond; got != want {
		t.Errorf("window = %v, want %v", got, want)
	}
	cfg.TargetPercentiles[0] = 99
	if got, want := cfg.incrementWindow(0), 1500*sim.Microsecond; got != want {
		t.Errorf("99th-p window = %v, want %v", got, want)
	}
	// A stricter (higher) percentile must produce a longer window: the
	// algorithm is more conservative for higher tails (§5.1).
	cfg99 := cfg.incrementWindow(0)
	cfg.TargetPercentiles[0] = 99.9
	if cfg.incrementWindow(0) <= cfg99 {
		t.Error("99.9th-p window not longer than 99th-p window")
	}
}

func TestInitialAdmitProbabilityIsOne(t *testing.T) {
	ct := newCtlSim(t, sim.New(1))
	if got := ct.AdmitProbability(5, qos.High); got != 1 {
		t.Errorf("initial p_admit = %v, want 1", got)
	}
	// The lowest class always reports 1.
	if got := ct.AdmitProbability(5, qos.Low); got != 1 {
		t.Errorf("lowest class p_admit = %v", got)
	}
}

func TestAdmitAtFullProbability(t *testing.T) {
	ct := newCtlSim(t, sim.New(1))
	for i := 0; i < 100; i++ {
		d := ct.Admit(1, qos.High, 1)
		if d.Downgraded || d.Dropped || d.Class != qos.High {
			t.Fatalf("RPC downgraded at p_admit = 1: %+v", d)
		}
	}
}

func TestLowestClassAlwaysAdmitted(t *testing.T) {
	ct := newCtlSim(t, sim.New(1))
	for i := 0; i < 100; i++ {
		d := ct.Admit(1, qos.Low, 1)
		if d.Downgraded || d.Dropped || d.Class != qos.Low {
			t.Fatalf("lowest-class RPC not admitted: %+v", d)
		}
	}
}

func TestMultiplicativeDecreaseOnMiss(t *testing.T) {
	ct := newCtlSim(t, sim.New(1))
	// One SLO miss of a 10-MTU RPC decreases p by β×10.
	ct.Observe(1, qos.High, 100*target(), 10)
	want := 1 - 0.01*10
	if got := ct.AdmitProbability(1, qos.High); math.Abs(got-want) > 1e-12 {
		t.Errorf("p_admit = %v, want %v", got, want)
	}
	if ct.Stats().SLOMisses != 1 {
		t.Errorf("SLOMisses = %d", ct.Stats().SLOMisses)
	}
}

func TestSizeMissEquivalence(t *testing.T) {
	// An SLO miss on a 10-MTU RPC must decrease p_admit exactly as much
	// as ten misses on 1-MTU RPCs (§5.1).
	s := sim.New(1)
	a, b := newCtlSim(t, s), newCtlSim(t, s)
	a.Observe(1, qos.High, 100*target(), 10)
	for i := 0; i < 10; i++ {
		b.Observe(1, qos.High, 100*target(), 1)
	}
	if pa, pb := a.AdmitProbability(1, qos.High), b.AdmitProbability(1, qos.High); math.Abs(pa-pb) > 1e-12 {
		t.Errorf("10-MTU miss %v != 10×1-MTU miss %v", pa, pb)
	}
}

func TestNormalizedTargetScalesWithSize(t *testing.T) {
	ct := newCtlSim(t, sim.New(1))
	// 10 MTUs with latency 15×target: per-MTU latency 1.5×target → miss.
	ct.Observe(1, qos.High, 15*target(), 10)
	if ct.Stats().SLOMisses != 1 {
		t.Error("per-MTU normalisation failed: large RPC over per-MTU target not a miss")
	}
	// 10 MTUs with latency 5×target: per-MTU latency 0.5×target → met.
	ct.Observe(1, qos.High, 5*target(), 10)
	if ct.Stats().SLOMet != 1 {
		t.Error("per-MTU normalisation failed: large RPC under scaled target flagged as miss")
	}
}

func TestAdditiveIncreaseOncePerWindow(t *testing.T) {
	s := sim.New(1)
	ct := newCtlSim(t, s)
	// Drive p down first.
	for i := 0; i < 30; i++ {
		ct.Observe(1, qos.High, 100*target(), 1)
	}
	p0 := ct.AdmitProbability(1, qos.High)
	// Many compliant completions at the same instant: only one increase.
	for i := 0; i < 50; i++ {
		ct.Observe(1, qos.High, target()/2, 1)
	}
	p1 := ct.AdmitProbability(1, qos.High)
	if math.Abs(p1-(p0+0.01)) > 1e-12 {
		t.Errorf("p after burst of good completions = %v, want single increment %v", p1, p0+0.01)
	}
	// After the window passes, another increase is allowed.
	window := ct.Config().incrementWindow(0)
	s.AtFunc(s.Now()+window+1, func(*sim.Simulator) {
		ct.Observe(1, qos.High, target()/2, 1)
	})
	s.Run()
	if got := ct.AdmitProbability(1, qos.High); math.Abs(got-(p1+0.01)) > 1e-12 {
		t.Errorf("p after window = %v, want %v", got, p1+0.01)
	}
}

func TestNoIncrementWindowAblation(t *testing.T) {
	cfg := Defaults3(target(), 2*target())
	cfg.NoIncrementWindow = true
	ct := newCtlCfg(t, cfg, sim.New(1))
	for i := 0; i < 30; i++ {
		ct.Observe(1, qos.High, 100*target(), 1)
	}
	p0 := ct.AdmitProbability(1, qos.High)
	for i := 0; i < 10; i++ {
		ct.Observe(1, qos.High, target()/2, 1)
	}
	if got := ct.AdmitProbability(1, qos.High); math.Abs(got-(p0+0.1)) > 1e-9 {
		t.Errorf("ablation: p = %v, want %v (increase every completion)", got, p0+0.1)
	}
}

func TestNoSizeScaledMDAblation(t *testing.T) {
	cfg := Defaults3(target(), 2*target())
	cfg.NoSizeScaledMD = true
	ct := newCtlCfg(t, cfg, sim.New(1))
	ct.Observe(1, qos.High, 100*target(), 10)
	if got := ct.AdmitProbability(1, qos.High); math.Abs(got-0.99) > 1e-12 {
		t.Errorf("ablation: p = %v, want 0.99 (constant β)", got)
	}
}

func TestFloorPreventsStarvation(t *testing.T) {
	ct := newCtlSim(t, sim.New(1))
	for i := 0; i < 10000; i++ {
		ct.Observe(1, qos.High, 100*target(), 64)
	}
	if got := ct.AdmitProbability(1, qos.High); got != ct.Config().Floor {
		t.Errorf("p_admit = %v, want floor %v", got, ct.Config().Floor)
	}
}

func TestDowngradeGoesToLowestClass(t *testing.T) {
	cfg := Defaults3(target(), 2*target())
	cfg.Floor = 0.0
	ct := newCtlCfg(t, cfg, sim.New(1))
	for i := 0; i < 1000; i++ {
		ct.Observe(1, qos.Medium, 100*target(), 10)
	}
	downgrades := 0
	for i := 0; i < 100; i++ {
		d := ct.Admit(1, qos.Medium, 1)
		if d.Downgraded {
			downgrades++
			if d.Class != qos.Low {
				t.Fatalf("downgraded to %v, want QoSl", d.Class)
			}
		}
	}
	if downgrades == 0 {
		t.Error("no downgrades at p_admit = 0")
	}
}

func TestDropAblation(t *testing.T) {
	cfg := Defaults3(target(), 2*target())
	cfg.DropInsteadOfDowngrade = true
	cfg.Floor = 0
	ct := newCtlCfg(t, cfg, sim.New(1))
	for i := 0; i < 1000; i++ {
		ct.Observe(1, qos.High, 100*target(), 10)
	}
	drops := 0
	for i := 0; i < 100; i++ {
		if d := ct.Admit(1, qos.High, 1); d.Dropped {
			drops++
		}
	}
	if drops == 0 {
		t.Error("drop ablation never dropped")
	}
	if ct.Stats().Dropped == 0 {
		t.Error("drop counter not incremented")
	}
}

func TestPerDestinationIndependence(t *testing.T) {
	ct := newCtlSim(t, sim.New(1))
	ct.Observe(1, qos.High, 100*target(), 10)
	if got := ct.AdmitProbability(2, qos.High); got != 1 {
		t.Errorf("dst 2 affected by dst 1 misses: p = %v", got)
	}
	if got := ct.AdmitProbability(1, qos.High); got == 1 {
		t.Error("dst 1 not affected by its own misses")
	}
}

func TestPerClassIndependence(t *testing.T) {
	ct := newCtlSim(t, sim.New(1))
	ct.Observe(1, qos.High, 100*target(), 10)
	if got := ct.AdmitProbability(1, qos.Medium); got != 1 {
		t.Errorf("QoSm affected by QoSh misses: p = %v", got)
	}
}

func TestScavengerObservationsIgnored(t *testing.T) {
	ct := newCtlSim(t, sim.New(1))
	ct.Observe(1, qos.Low, 1000*target(), 10)
	if ct.Stats().SLOMisses != 0 {
		t.Error("scavenger-class latency counted as SLO miss")
	}
}

// Property: p_admit always stays within [floor, 1] under arbitrary
// observation sequences.
func TestPAdmitBoundsProperty(t *testing.T) {
	f := func(events []uint16) bool {
		s := sim.New(3)
		ct, err := NewWithClock(Defaults3(target(), 2*target()), SimClock{S: s})
		if err != nil {
			panic(err)
		}
		now := sim.Time(0)
		for _, e := range events {
			now += sim.Time(e) * sim.Microsecond
			s.AtFunc(now, func(*sim.Simulator) {
				lat := sim.Duration(e%4000) * sim.Nanosecond
				size := int64(e%20) + 1
				ct.Observe(int(e%3), qos.Class(e%2), lat, size)
			})
		}
		s.Run()
		for dst := 0; dst < 3; dst++ {
			for _, cl := range []qos.Class{qos.High, qos.Medium} {
				p := ct.AdmitProbability(dst, cl)
				if p < ct.Config().Floor-1e-12 || p > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the admitted fraction over many trials tracks p_admit.
func TestAdmitFractionTracksProbability(t *testing.T) {
	ct := newCtlSim(t, sim.New(7))
	// Drive p to ~0.6.
	for i := 0; i < 40; i++ {
		ct.Observe(1, qos.High, 100*target(), 1)
	}
	p := ct.AdmitProbability(1, qos.High)
	if math.Abs(p-0.6) > 1e-9 {
		t.Fatalf("setup failed: p = %v", p)
	}
	admitted := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if d := ct.Admit(1, qos.High, 1); !d.Downgraded {
			admitted++
		}
	}
	frac := float64(admitted) / trials
	if math.Abs(frac-p) > 0.02 {
		t.Errorf("admitted fraction %v, want ~%v", frac, p)
	}
}
