package aequitas

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"aequitas/internal/calculus"
	"aequitas/internal/scenario"
)

// threeNodeOverload is the §6.2 microbenchmark: two senders issue 32 KB
// RPCs at line rate to one receiver, 70% PC / 30% BE, so the receiver's
// downlink is persistently 2× overloaded.
func threeNodeOverload(system System, sloUS float64, seed int64) SimConfig {
	return SimConfig{
		System:     system,
		Hosts:      3,
		Seed:       seed,
		Duration:   80 * time.Millisecond,
		Warmup:     30 * time.Millisecond,
		QoSWeights: []float64{4, 1},
		SLOs: []SLO{{
			Target:         time.Duration(sloUS * float64(time.Microsecond)),
			ReferenceBytes: 32 << 10,
			Percentile:     99.9,
		}},
		Traffic: []HostTraffic{{
			Hosts:   []int{0, 1},
			Dsts:    []int{2},
			AvgLoad: 1.0,
			Arrival: ArrivalPeriodic,
			Classes: []TrafficClass{
				{Priority: PC, Share: 0.7, FixedBytes: 32 << 10},
				{Priority: BE, Share: 0.3, FixedBytes: 32 << 10},
			},
		}},
	}
}

// TestRunValidation is the table of configurations Run must refuse
// with an aequitas: error before building anything. Each would otherwise
// fail inside the run, panic, hang, or run with a meaningless setting.
func TestRunValidation(t *testing.T) {
	probe := []Probe{{Src: 0, Dst: 1, Class: High}}
	cases := []struct {
		name string
		edit func(*SimConfig)
	}{
		{"empty config", func(c *SimConfig) { *c = SimConfig{} }},
		{"one host", func(c *SimConfig) { c.Hosts = 1 }},
		{"warmup past duration", func(c *SimConfig) { c.Warmup = 2 * time.Millisecond }},
		{"no traffic", func(c *SimConfig) { c.Traffic = nil }},
		{"aequitas without SLOs", func(c *SimConfig) { c.System = SystemAequitas }},
		{"System(-1)", func(c *SimConfig) { c.System = -1 }},
		{"System(9)", func(c *SimConfig) { c.System = 9 }},
		{"probe src below range", func(c *SimConfig) { c.Probes = []Probe{{Src: -1, Dst: 1}} }},
		{"probe src above range", func(c *SimConfig) { c.Probes = []Probe{{Src: 3, Dst: 1}} }},
		{"probe dst below range", func(c *SimConfig) { c.Probes = []Probe{{Src: 0, Dst: -1}} }},
		{"probe dst above range", func(c *SimConfig) { c.Probes = []Probe{{Src: 0, Dst: 3}} }},
		{"negative priority", func(c *SimConfig) { c.Traffic[0].Classes[0].Priority = -1 }},
		{"negative warmup", func(c *SimConfig) { c.Warmup = -time.Microsecond }},
		{"negative burst period", func(c *SimConfig) {
			c.BurstPeriod = -time.Microsecond
			c.Traffic[0].BurstLoad = 1.4
		}},
		{"negative sample interval", func(c *SimConfig) { c.SampleEvery, c.Probes = -time.Microsecond, probe }},
		{"negative propagation delay", func(c *SimConfig) { c.PropDelay = -time.Nanosecond }},
		{"negative RTO floor", func(c *SimConfig) { c.RTOMin = -time.Microsecond }},
		{"only destination is the sender", func(c *SimConfig) { c.Traffic[0].Dsts = []int{2} }},
		{"sender listed twice in Dsts", func(c *SimConfig) { c.Traffic[0].Dsts = []int{1, 2, 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SimConfig{Hosts: 3, Duration: time.Millisecond, Traffic: minimalTraffic()}
			tc.edit(&cfg)
			err := cfg.applyDefaults()
			if err == nil || !strings.HasPrefix(err.Error(), "aequitas: ") {
				t.Errorf("applyDefaults = %v, want an aequitas: error", err)
			}
		})
	}
}

func TestBaselineOverloadViolatesSLO(t *testing.T) {
	cfg := threeNodeOverload(SystemBaseline, 15, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without admission control the 2× overload drives QoSh tail RNL far
	// beyond the 15 µs SLO.
	p999 := res.RNLQuantileUS(High, 0.999)
	if p999 < 30 {
		t.Errorf("baseline QoSh 99.9p = %.1fus; expected gross SLO violation", p999)
	}
	if res.Downgraded != 0 {
		t.Errorf("baseline downgraded %d RPCs", res.Downgraded)
	}
}

func TestAequitasMeetsSLOUnderOverload(t *testing.T) {
	cfg := threeNodeOverload(SystemAequitas, 25, 1)
	cfg.Probes = []Probe{{Src: 0, Dst: 2, Class: High}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p999 := res.RNLQuantileUS(High, 0.999)
	if p999 > 25*1.6 {
		t.Errorf("Aequitas QoSh 99.9p = %.1fus, SLO 25us not tracked", p999)
	}
	if res.Downgraded == 0 {
		t.Error("no RPCs downgraded under 2x overload")
	}
	// Admitted QoSh share must be squeezed below the input share.
	if res.AdmittedMix[0] >= res.InputMix[0]-0.05 {
		t.Errorf("admitted QoSh share %.2f not reduced from input %.2f",
			res.AdmittedMix[0], res.InputMix[0])
	}
	if len(res.Probes) != 1 {
		t.Fatalf("probes = %d", len(res.Probes))
	}
	pr := res.Probes[0]
	if pr.AdmitProbability.Final(-1) <= 0 || pr.AdmitProbability.Final(-1) > 1 {
		t.Errorf("final p_admit = %v", pr.AdmitProbability.Final(-1))
	}
	// Aequitas's defining behaviour: p_admit well below 1 at equilibrium.
	mean, ok := pr.AdmitProbability.MeanAfterOK(0.05)
	if !ok {
		t.Error("no p_admit samples after 0.05s")
	} else if mean > 0.9 {
		t.Errorf("mean p_admit %.2f; admission control appears inactive", mean)
	}
}

func TestAequitasBeatsBaselineTail(t *testing.T) {
	base, err := Run(threeNodeOverload(SystemBaseline, 25, 2))
	if err != nil {
		t.Fatal(err)
	}
	aeq, err := Run(threeNodeOverload(SystemAequitas, 25, 2))
	if err != nil {
		t.Fatal(err)
	}
	bp, ap := base.RNLQuantileUS(High, 0.999), aeq.RNLQuantileUS(High, 0.999)
	if ap >= bp {
		t.Errorf("Aequitas QoSh 99.9p %.1fus not better than baseline %.1fus", ap, bp)
	}
}

// Figure 10: with congestion control disabled and large buffers, the
// packet simulator's worst-case per-class delays must track the
// closed-form theory for the 2-QoS burst model.
func TestSimulatorMatchesTheory(t *testing.T) {
	const (
		mu     = 0.8
		rho    = 1.2
		phi    = 4.0
		period = time.Millisecond
	)
	theory := calculus.TwoQoS{Phi: phi, Rho: rho, Mu: mu}
	for _, x := range []float64{0.3, 0.5, 0.7} {
		cfg := SimConfig{
			System:              SystemBaseline,
			Hosts:               3,
			Seed:                7,
			Duration:            60 * time.Millisecond,
			Warmup:              10 * time.Millisecond,
			QoSWeights:          []float64{phi, 1},
			PerClassBufferBytes: -1, // unlimited: match the fluid model
			DisableCC:           true,
			FixedWindow:         512,
			BurstPeriod:         period,
			RTOMin:              500 * time.Millisecond, // no spurious RTO
			Traffic: []HostTraffic{{
				Hosts:     []int{0, 1},
				Dsts:      []int{2},
				AvgLoad:   mu / 2, // two senders sum to µ
				BurstLoad: rho / 2,
				Arrival:   ArrivalPeriodic,
				Classes: []TrafficClass{
					{Priority: PC, Share: x, FixedBytes: 1436},
					{Priority: NC, Share: 1 - x, FixedBytes: 1436},
				},
			}},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		periodUS := float64(period.Microseconds())
		simH := res.RNLRun[High].MaxUS / periodUS
		simL := res.RNLRun[Medium].MaxUS / periodUS
		wantH, wantL := theory.DelayHigh(x), theory.DelayLow(x)
		if math.Abs(simH-wantH) > 0.08 {
			t.Errorf("x=%.1f: QoSh delay %v, theory %v", x, simH, wantH)
		}
		if math.Abs(simL-wantL) > 0.10 {
			t.Errorf("x=%.1f: QoSl delay %v, theory %v", x, simL, wantL)
		}
	}
}

func TestSPQSystemRuns(t *testing.T) {
	cfg := threeNodeOverload(SystemSPQ, 15, 3)
	cfg.Duration = 30 * time.Millisecond
	cfg.Warmup = 10 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// SPQ serves the high class strictly first: its tail should be small,
	// while the low class starves under 2x overload.
	hi := res.RNLQuantileUS(High, 0.99)
	lo := res.RNLQuantileUS(Low, 0.5)
	if hi <= 0 {
		t.Fatal("no QoSh samples")
	}
	if lo != 0 && lo < hi {
		t.Errorf("SPQ low class median %.1fus below high class p99 %.1fus", lo, hi)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := threeNodeOverload(SystemAequitas, 20, 9)
	cfg.Duration = 20 * time.Millisecond
	cfg.Warmup = 5 * time.Millisecond
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.Downgraded != b.Downgraded {
		t.Errorf("non-deterministic: %d/%d vs %d/%d", a.Completed, a.Downgraded, b.Completed, b.Downgraded)
	}
	if a.RNLQuantileUS(High, 0.999) != b.RNLQuantileUS(High, 0.999) {
		t.Error("non-deterministic tail latency")
	}
}

func TestSystemStrings(t *testing.T) {
	if got := Systems(); len(got) != len(scenario.Systems) {
		t.Fatalf("Systems() has %d entries, the table %d", len(got), len(scenario.Systems))
	}
	// -system resolves the first row with a matching name, so a repeated
	// or empty one would leave a system unreachable.
	seen := map[string]bool{}
	for i, row := range scenario.Systems {
		if row.Name == "" || seen[row.Name] {
			t.Errorf("row %d: name %q is empty or repeated", i, row.Name)
		}
		seen[row.Name] = true
	}
	for i, row := range scenario.Systems {
		if got := Systems()[i]; got != System(i) || got.String() != row.Name {
			t.Errorf("Systems()[%d] = %v (%q), want System(%d) %q", i, int(got), got, i, row.Name)
		}
	}
	for _, s := range []System{-1, System(len(scenario.Systems)), 99} {
		if got, want := s.String(), fmt.Sprintf("System(%d)", int(s)); got != want {
			t.Errorf("out-of-range String() = %q, want %q", got, want)
		}
	}
}
