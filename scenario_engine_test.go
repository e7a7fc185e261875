package aequitas

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// goldenConfig is the reference configuration whose Results were captured
// before Run was decomposed into the scenario engine. The golden strings
// below must never change for a fixed seed: they pin the refactor to
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

// TestGoldenDeterminism pins Run to the exact Results the pre-refactor
// monolithic Run produced for seed 7 — every count, quantile and mix
// digit. A diff here means the scenario engine changed the RNG draw
// sequence or the event-scheduling order, not just the code structure.
func TestGoldenDeterminism(t *testing.T) {
	golden := map[System]string{
		SystemBaseline: `system=baseline issued=19516 completed=19474 downgraded=0 dropped=0
  class=QoSh n=9802 mean=33.249829106 p50=29.250889000 p99=91.906081000 p999=150.139290000 max=208.744504000
  class=QoSm n=5906 mean=50.357406096 p50=44.528401000 p99=163.818559000 p999=263.237964000 max=294.064242000
  class=QoSl n=3766 mean=1401.541029248 p50=579.860215000 p99=6675.634400000 p999=8622.272517000 max=8669.034145000
  goodput=0.997847919656 rawgoodput=0.997847919656 util=0.836176835000
  inputmix=[0.5022545603607297 0.30262348841975817 0.1951219512195122] admittedmix=[0.5022545603607297 0.30262348841975817 0.1951219512195122]
`,
		SystemAequitas: `system=aequitas issued=19769 completed=19769 downgraded=8620 dropped=0
  class=QoSh n=3308 mean=10.297592573 p50=9.290980000 p99=25.548565000 p999=37.449638000 max=43.850827000
  class=QoSm n=3964 mean=17.855505929 p50=15.527963000 p99=47.338490000 p999=57.599608000 max=64.081274000
  class=QoSl n=12497 mean=551.952235894 p50=362.321754000 p99=2041.007077000 p999=2329.602821000 max=2454.513058000
  goodput=1.000000000000 rawgoodput=1.000000000000 util=0.845228150000
  inputmix=[0.5053872224189387 0.29849764783246496 0.1961151297485963] admittedmix=[0.16733269259952452 0.20051595933026456 0.6321513480702109]
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
// one switch, and Aequitas once more on a leaf-spine fabric.
var digestRows = []struct {
	sys            System
	leaves, spines int
	want           string
}{
	{SystemBaseline, 0, 0,
		`issued=2391 completed=2347 downgraded=0 timedout=97 retried=47 hedgewins=87 failed=1 crashlost=43 events=435965 packets=107568 pc=9.482423/661.664075 qosh=9.482423/661.664075`},
	{SystemAequitas, 0, 0,
		`issued=2382 completed=2350 downgraded=251 timedout=193 retried=108 hedgewins=77 failed=0 crashlost=32 events=462141 packets=114066 pc=8.699791/812.102434 qosh=8.075881/326.949234`},
	{SystemSPQ, 0, 0,
		`issued=2391 completed=2354 downgraded=0 timedout=88 retried=44 hedgewins=74 failed=1 crashlost=36 events=430464 packets=106189 pc=6.084623/325.071113 qosh=6.084623/325.071113`},
	{SystemDWRR, 0, 0,
		`issued=2391 completed=2344 downgraded=0 timedout=102 retried=52 hedgewins=87 failed=1 crashlost=46 events=436153 packets=107602 pc=9.54712/680.501102 qosh=9.54712/680.501102`},
	{SystemPFabric, 0, 0,
		`issued=2391 completed=2225 downgraded=0 timedout=431 retried=348 hedgewins=64 failed=28 crashlost=96 events=479154 packets=117179 pc=13.767662/1128.062001 qosh=13.767662/1128.062001`},
	{SystemQJump, 0, 0,
		`issued=2391 completed=2343 downgraded=0 timedout=95 retried=62 hedgewins=25 failed=1 crashlost=46 events=472545 packets=115079 pc=6.747806/366.977627 qosh=6.747806/366.977627`},
	{SystemD3, 0, 0,
		`issued=2391 completed=2260 downgraded=0 timedout=185 retried=132 hedgewins=70 failed=30 crashlost=96 events=311619 packets=61367 pc=45.095901/249.267353 qosh=45.095901/249.267353`},
	{SystemPDQ, 0, 0,
		`issued=2391 completed=1836 downgraded=0 timedout=1102 retried=776 hedgewins=0 failed=157 crashlost=111 events=296144 packets=58570 pc=60.787511/251.825077 qosh=60.787511/251.825077`},
	{SystemHoma, 0, 0,
		`issued=2350 completed=2337 downgraded=0 timedout=59 retried=51 hedgewins=38 failed=0 crashlost=13 events=276983 packets=65496 pc=8.817404/479.069547 qosh=8.817404/479.069547`},
	{SystemAequitas, 2, 1,
		`issued=2382 completed=2085 downgraded=643 timedout=831 retried=565 hedgewins=32 failed=51 crashlost=62 events=714403 packets=109961 pc=10.067833/1329.758032 qosh=7.938424/350.331187`},
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
// faults; this covers the senders of all nine, which must not touch a
// message once its completion has been reported.
func TestRunDigestsAcrossSystems(t *testing.T) {
	if len(digestRows) != len(allSystems)+1 {
		t.Fatalf("%d rows for %d systems", len(digestRows), len(allSystems))
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

// allSystems lists every System value; kept in sync with the registry by
// TestRegistrySmoke below.
var allSystems = []System{
	SystemBaseline, SystemAequitas, SystemSPQ, SystemDWRR,
	SystemPFabric, SystemQJump, SystemD3, SystemPDQ, SystemHoma,
}

// TestRegistrySmoke runs every registered system on both a single-switch
// and a leaf-spine fabric and checks RPCs complete. Any System value
// missing from the scenario registry fails here at config validation.
func TestRegistrySmoke(t *testing.T) {
	if len(Systems()) != len(allSystems) {
		t.Fatalf("registry has %d systems (%v), tests cover %d", len(Systems()), Systems(), len(allSystems))
	}
	topologies := []struct {
		name           string
		leaves, spines int
	}{
		{"single-switch", 0, 0},
		{"leaf-spine", 2, 1},
	}
	for _, system := range allSystems {
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
