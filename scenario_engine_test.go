package aequitas

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// goldenConfig is the reference configuration whose Results were captured
// before Run was decomposed into the scenario engine. The golden strings
// below must never change for a fixed seed: they pin every refactor to
// byte-identical behaviour (same RNG draw sequence, same event order).
func goldenConfig(sys System) SimConfig {
	return SimConfig{
		System:   sys,
		Hosts:    8,
		Seed:     7,
		Duration: 10 * time.Millisecond,
		SLOs: []SLO{
			{Target: 25 * time.Microsecond, ReferenceBytes: 32 << 10},
			{Target: 50 * time.Microsecond, ReferenceBytes: 32 << 10},
		},
		Traffic: []HostTraffic{{
			AvgLoad:   0.8,
			BurstLoad: 1.4,
			Classes: []TrafficClass{
				{Priority: PC, Share: 0.5, FixedBytes: 32 << 10},
				{Priority: NC, Share: 0.3, FixedBytes: 32 << 10},
				{Priority: BE, Share: 0.2, FixedBytes: 32 << 10},
			},
		}},
	}
}

func formatGolden(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system=%s issued=%d completed=%d downgraded=%d dropped=%d\n",
		res.System, res.Issued, res.Completed, res.Downgraded, res.Dropped)
	for _, c := range res.Classes() {
		l := res.RNLRun[c]
		fmt.Fprintf(&b, "  class=%s n=%d mean=%.9f p50=%.9f p99=%.9f p999=%.9f max=%.9f\n",
			c, l.N, l.MeanUS, l.P50US, l.P99US, l.P999US, l.MaxUS)
	}
	fmt.Fprintf(&b, "  goodput=%.12f rawgoodput=%.12f util=%.12f\n",
		res.GoodputFraction, res.RawGoodputRatio, res.AvgDownlinkUtilization)
	fmt.Fprintf(&b, "  inputmix=%v admittedmix=%v\n", res.InputMix, res.AdmittedMix)
	return b.String()
}

// TestGoldenDeterminism pins Run to exact Results for seed 7 — every
// count, quantile and mix digit. A diff here means a change moved the RNG
// draw sequence or the event order, not just the code structure.
//
// The values were taken from the pre-refactor monolithic Run and re-pinned
// once since, when the order of the events of one instant became part of
// the model (internal/sim: packet deliveries first in link order, then
// ordinary events, then transmitters freeing in link order). Before that,
// simultaneous events ran in the order they had been scheduled in, which
// no model stated and which a pull-based link could not reproduce.
func TestGoldenDeterminism(t *testing.T) {
	golden := map[System]string{
		SystemBaseline: `system=baseline issued=19516 completed=19462 downgraded=0 dropped=0
  class=QoSh n=9802 mean=32.973817851 p50=28.941975000 p99=86.902821000 p999=144.260332000 max=162.178512000
  class=QoSm n=5906 mean=50.300701902 p50=43.910634000 p99=175.690278000 p999=273.142121000 max=300.677154000
  class=QoSl n=3754 mean=1291.108142583 p50=464.642229000 p99=7777.511270000 p999=9280.640239000 max=9481.015193000
  goodput=0.997233039557 rawgoodput=0.997233039557 util=0.838182310000
  inputmix=[0.5022545603607297 0.30262348841975817 0.1951219512195122] admittedmix=[0.5022545603607297 0.30262348841975817 0.1951219512195122]
`,
		SystemAequitas: `system=aequitas issued=19769 completed=19769 downgraded=8664 dropped=0
  class=QoSh n=3275 mean=10.050380244 p50=9.086798000 p99=24.434112000 p999=36.619513000 max=41.384299000
  class=QoSm n=3953 mean=17.435948540 p50=15.287069000 p99=46.269764000 p999=60.442606000 max=66.827834000
  class=QoSl n=12541 mean=547.003290649 p50=362.570885000 p99=2237.732529000 p999=2659.953929000 max=2759.043821000
  goodput=1.000000000000 rawgoodput=1.000000000000 util=0.846496105000
  inputmix=[0.5053872224189387 0.29849764783246496 0.1961151297485963] admittedmix=[0.16566341241337448 0.1999595326015479 0.6343770549850777]
`,
	}
	for sys, want := range golden {
		t.Run(sys.String(), func(t *testing.T) {
			res, err := Run(goldenConfig(sys))
			if err != nil {
				t.Fatal(err)
			}
			if got := formatGolden(res); got != want {
				t.Errorf("results diverged from pre-refactor golden values\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// digestRows are the runs TestRunDigestsAcrossSystems pins: every system on
// one switch, and Aequitas once more on a leaf-spine fabric. They were
// re-pinned once, with TestGoldenDeterminism's goldens and for its reason:
// the order of the events of one instant became part of the model.
var digestRows = []struct {
	sys            System
	leaves, spines int
	want           string
}{
	{SystemBaseline, 0, 0,
		`issued=2391 completed=2346 downgraded=0 timedout=101 retried=51 hedgewins=88 failed=1 crashlost=44 events=220496 packets=107566 pc=9.508656/709.557157 qosh=9.508656/709.557157`},
	{SystemAequitas, 0, 0,
		`issued=2382 completed=2350 downgraded=250 timedout=193 retried=103 hedgewins=76 failed=0 crashlost=32 events=233527 packets=113991 pc=8.659857/815.948654 qosh=8.086513/326.426973`},
	{SystemSPQ, 0, 0,
		`issued=2391 completed=2355 downgraded=0 timedout=89 retried=41 hedgewins=74 failed=1 crashlost=35 events=217197 packets=105934 pc=6.084623/325.071113 qosh=6.084623/325.071113`},
	{SystemPFabric, 0, 0,
		`issued=2391 completed=2225 downgraded=0 timedout=431 retried=348 hedgewins=64 failed=28 crashlost=96 events=242419 packets=117179 pc=13.767662/1128.062001 qosh=13.767662/1128.062001`},
	{SystemQJump, 0, 0,
		`issued=2391 completed=2343 downgraded=0 timedout=95 retried=62 hedgewins=25 failed=1 crashlost=46 events=239167 packets=115079 pc=6.747806/366.977627 qosh=6.747806/366.977627`},
	{SystemD3, 0, 0,
		`issued=2391 completed=2260 downgraded=0 timedout=185 retried=132 hedgewins=70 failed=30 crashlost=96 events=187981 packets=61367 pc=45.095901/249.267353 qosh=45.095901/249.267353`},
	{SystemPDQ, 0, 0,
		`issued=2391 completed=1827 downgraded=0 timedout=1140 retried=804 hedgewins=0 failed=164 crashlost=115 events=179423 packets=58677 pc=60.769964/251.338173 qosh=60.769964/251.338173`},
	{SystemHoma, 0, 0,
		`issued=2350 completed=2337 downgraded=0 timedout=59 retried=51 hedgewins=38 failed=0 crashlost=13 events=145217 packets=65496 pc=8.817404/479.069547 qosh=8.817404/479.069547`},
	{SystemAequitas, 2, 1,
		`issued=2382 completed=2080 downgraded=653 timedout=872 retried=601 hedgewins=40 failed=39 crashlost=63 events=359964 packets=109815 pc=9.997031/1293.036265 qosh=7.890657/350.541522`},
}

// formatDigest is the part of a faulted, retried and hedged run's Results
// that TestRunDigestsAcrossSystems pins: every RPC-lifecycle count, the
// event and packet totals, and the PC and QoSh medians and tails.
func formatDigest(res *Results) string {
	pc, h := res.RNLPriority[PC], res.RNLRun[High]
	return fmt.Sprintf("issued=%d completed=%d downgraded=%d timedout=%d retried=%d hedgewins=%d failed=%d crashlost=%d events=%d packets=%d pc=%v/%v qosh=%v/%v",
		res.Issued, res.Completed, res.Downgraded, res.TimedOut, res.Retried, res.HedgeWins, res.FailedRPCs, res.CrashLostRPCs,
		res.EventsProcessed, res.PacketsDelivered, pc.P50US, pc.P999US, h.P50US, h.P999US)
}

// TestRunDigestsAcrossSystems pins every system's RPC lifecycle under a
// link flap and a host crash, with time-outs, two retries and hedging on:
// the paths where an RPC has more than one transmission, some of them
// never called back. TestGoldenDeterminism covers two systems without
// faults; this covers the senders of all eight, which must not touch a
// message once its completion has been reported.
func TestRunDigestsAcrossSystems(t *testing.T) {
	if len(digestRows) != len(Systems())+1 {
		t.Fatalf("%d rows for %d systems", len(digestRows), len(Systems()))
	}
	for _, row := range digestRows {
		name := row.sys.String()
		if row.leaves > 0 {
			name += "/leaf-spine"
		}
		t.Run(name, func(t *testing.T) {
			cfg := smallCluster(row.sys, 5)
			cfg.Duration, cfg.Warmup = 2*time.Millisecond, 500*time.Microsecond
			cfg.Leaves, cfg.Spines = row.leaves, row.spines
			plan, err := FaultPreset("flapcrash", cfg.Duration)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
			cfg.Retry = RetryParams{Timeout: 300 * time.Microsecond, MaxRetries: 2,
				HedgeAfter: 100 * time.Microsecond, HedgeMaxBytes: 16 << 10}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := formatDigest(res); got != row.want {
				t.Errorf("digest diverged\ngot:  %s\nwant: %s", got, row.want)
			}
		})
	}
}

// TestRegistrySmoke runs every system on both a single-switch and a
// leaf-spine fabric and checks RPCs complete.
func TestRegistrySmoke(t *testing.T) {
	topologies := []struct {
		name           string
		leaves, spines int
	}{
		{"single-switch", 0, 0},
		{"leaf-spine", 2, 1},
	}
	for _, system := range Systems() {
		for _, topo := range topologies {
			t.Run(system.String()+"/"+topo.name, func(t *testing.T) {
				cfg := smallCluster(system, 3)
				cfg.Duration = 5 * time.Millisecond
				cfg.Warmup = time.Millisecond
				cfg.Leaves = topo.leaves
				cfg.Spines = topo.spines
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Completed == 0 {
					t.Errorf("%s on %s completed no RPCs (issued %d)", system, topo.name, res.Issued)
				}
			})
		}
	}
}

// TestTrafficPatternsEndToEnd drives each built-in pattern through a full
// run and checks pattern-specific delivery.
func TestTrafficPatternsEndToEnd(t *testing.T) {
	patterns := []TrafficPattern{
		UniformPattern(),
		IncastPattern(4),
		PermutationPattern(),
		HotspotPattern(0, 0.5),
	}
	for _, p := range patterns {
		t.Run(p.String(), func(t *testing.T) {
			cfg := smallCluster(SystemBaseline, 5)
			cfg.Duration = 5 * time.Millisecond
			cfg.Warmup = time.Millisecond
			cfg.Traffic[0].Pattern = p
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 {
				t.Fatalf("pattern %s completed no RPCs", p)
			}
		})
	}
}

// TestIncastConcentratesLoad: with an incast pattern the receiver's
// downlink carries all traffic, so per-host average utilisation is well
// below a uniform run's at equal offered load per sender.
func TestIncastConcentratesLoad(t *testing.T) {
	base := smallCluster(SystemBaseline, 5)
	base.Duration = 5 * time.Millisecond
	base.Warmup = time.Millisecond
	base.Traffic[0].Pattern = IncastPatternTo(5, 2)
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("incast run completed no RPCs")
	}
}

// TestTrafficValidationNamesEntry checks that bad traffic configurations
// fail before the run starts and the error identifies the offending
// Traffic entry by index.
func TestTrafficValidationNamesEntry(t *testing.T) {
	base := func() SimConfig { return smallCluster(SystemBaseline, 1) }
	cases := []struct {
		name string
		mod  func(*SimConfig)
		want string
	}{
		{"host out of range", func(c *SimConfig) {
			c.Traffic = append(c.Traffic, HostTraffic{Hosts: []int{99}, AvgLoad: 0.1,
				Classes: c.Traffic[0].Classes})
		}, "traffic entry 1: host 99 out of range"},
		{"negative host", func(c *SimConfig) {
			c.Traffic[0].Hosts = []int{-1}
		}, "traffic entry 0: host -1 out of range"},
		{"destination out of range", func(c *SimConfig) {
			c.Traffic[0].Dsts = []int{42}
		}, "traffic entry 0: destination 42 out of range"},
		{"pattern with explicit hosts", func(c *SimConfig) {
			c.Traffic[0].Pattern = UniformPattern()
			c.Traffic[0].Hosts = []int{0}
		}, "traffic entry 0: Pattern and explicit Hosts/Dsts are mutually exclusive"},
		{"bad pattern parameters", func(c *SimConfig) {
			c.Traffic[0].Pattern = HotspotPattern(0, 1.5)
		}, "traffic entry 0:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mod(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("invalid traffic accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadShapesEndToEnd: a step up in load issues more RPCs than the
// constant run, an on/off shape issues fewer, and a nil shape matches
// ConstantLoad exactly (same RNG draw sequence).
func TestLoadShapesEndToEnd(t *testing.T) {
	run := func(shape LoadShape) *Results {
		t.Helper()
		cfg := smallCluster(SystemBaseline, 9)
		cfg.Duration = 5 * time.Millisecond
		cfg.Warmup = time.Millisecond
		cfg.Traffic[0].Shape = shape
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat := run(nil)
	constant := run(ConstantLoad())
	if flat.Issued != constant.Issued || flat.Completed != constant.Completed {
		t.Errorf("ConstantLoad diverged from nil shape: issued %d vs %d", constant.Issued, flat.Issued)
	}
	stepped := run(StepLoad(2500*time.Microsecond, 2))
	if stepped.Issued <= flat.Issued {
		t.Errorf("step to 2x load issued %d RPCs, constant issued %d", stepped.Issued, flat.Issued)
	}
	onoff := run(OnOffLoad(time.Millisecond, 0.5))
	if onoff.Issued >= flat.Issued {
		t.Errorf("50%% duty cycle issued %d RPCs, constant issued %d", onoff.Issued, flat.Issued)
	}
	ramped := run(RampLoad(time.Millisecond, 4*time.Millisecond, 0.2))
	if ramped.Issued >= flat.Issued {
		t.Errorf("ramp down to 0.2x issued %d RPCs, constant issued %d", ramped.Issued, flat.Issued)
	}
}

// TestStepLoadReconverges is the convergence property behind the loadstep
// figure: after a load step doubles the offered load, Aequitas's admit
// probability for the high class drops below its pre-step level and the
// admitted high-class share lands below the input share.
func TestStepLoadReconverges(t *testing.T) {
	cfg := goldenConfig(SystemAequitas)
	cfg.Duration = 30 * time.Millisecond
	cfg.Warmup = 2 * time.Millisecond
	cfg.Traffic[0].AvgLoad = 0.45
	cfg.Traffic[0].BurstLoad = 0.8
	cfg.Traffic[0].Shape = StepLoad(15*time.Millisecond, 2)
	cfg.Probes = []Probe{{Src: 0, Dst: 1, Class: High}}
	cfg.SampleEvery = 250 * time.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ser := res.Probes[0].AdmitProbability
	if len(ser.T) == 0 {
		t.Fatal("no admit-probability samples")
	}
	before := ser.MeanBetween(0.010, 0.015)
	after := ser.MeanBetween(0.025, 0.030)
	if after >= before {
		t.Errorf("p_admit did not fall after the load step: before=%.3f after=%.3f", before, after)
	}
}
