package aequitas

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"aequitas/internal/sim"
)

// faultTestConfig is obsTestConfig plus a shared fault plan and a retry
// policy, the smallest run that exercises the whole chaos path: blackhole,
// crash, timeouts, retries, and degradation metrics.
func faultTestConfig(seed int64, plan *FaultPlan) SimConfig {
	cfg := obsTestConfig(seed)
	cfg.Faults = plan
	cfg.Retry = RetryParams{Timeout: 300 * time.Microsecond, MaxRetries: 2}
	return cfg
}

// TestFaultDeterministicUnderParallel is the tentpole's golden criterion:
// with a fault plan active, sweeping the same configs on 1, 4, and 8
// workers produces byte-identical attribution CSVs and identical fault
// records. The plan pointer is deliberately shared across all sweep
// entries — injection must never mutate it.
func TestFaultDeterministicUnderParallel(t *testing.T) {
	plan, err := FaultPreset("flapcrash", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		csv     []string
		faults  [][]FaultRecord
		counter []int64
	}
	sweep := func(workers int) golden {
		systems := []System{SystemAequitas, SystemBaseline}
		bufs := make([]bytes.Buffer, len(systems))
		res, err := Sweep(len(systems), func(i int) SimConfig {
			cfg := faultTestConfig(7, plan)
			cfg.System = systems[i]
			cfg.Obs.AttributionCSV = &bufs[i]
			return cfg
		}, ParallelOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		g := golden{}
		for i := range systems {
			g.csv = append(g.csv, bufs[i].String())
			g.faults = append(g.faults, res[i].Faults)
			g.counter = append(g.counter,
				res[i].TimedOut, res[i].Retried, res[i].FailedRPCs,
				res[i].CrashLostRPCs, res[i].NotIssuedRPCs, res[i].Completed)
		}
		return g
	}
	ref := sweep(1)
	for i, c := range ref.csv {
		if c == "" {
			t.Fatalf("config %d: empty attribution CSV", i)
		}
	}
	if len(ref.faults[0]) == 0 {
		t.Fatal("no fault records despite an active plan")
	}
	for _, workers := range []int{4, 8} {
		got := sweep(workers)
		for i := range ref.csv {
			if got.csv[i] != ref.csv[i] {
				t.Errorf("config %d: attribution CSV differs between 1 and %d workers", i, workers)
			}
		}
		if !reflect.DeepEqual(got.faults, ref.faults) {
			t.Errorf("fault records differ between 1 and %d workers", workers)
		}
		if !reflect.DeepEqual(got.counter, ref.counter) {
			t.Errorf("robustness counters differ between 1 and %d workers:\n 1: %v\n%2d: %v",
				workers, ref.counter, workers, got.counter)
		}
	}
}

// TestEmptyFaultPlanIsNoOp: an empty (but non-nil) plan changes nothing —
// byte-identical attribution output and identical results to a nil plan,
// with no robustness counters touched.
func TestEmptyFaultPlanIsNoOp(t *testing.T) {
	run := func(plan *FaultPlan) (string, *Results) {
		var csv bytes.Buffer
		cfg := obsTestConfig(7)
		cfg.Faults = plan
		cfg.Obs.AttributionCSV = &csv
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return csv.String(), res
	}
	nilCSV, nilRes := run(nil)
	emptyCSV, emptyRes := run(&FaultPlan{})
	if nilCSV != emptyCSV {
		t.Error("attribution CSV differs between nil and empty fault plans")
	}
	if nilRes.Completed != emptyRes.Completed || nilRes.GoodputFraction != emptyRes.GoodputFraction {
		t.Errorf("results differ: nil (%d, %g) vs empty (%d, %g)",
			nilRes.Completed, nilRes.GoodputFraction, emptyRes.Completed, emptyRes.GoodputFraction)
	}
	for _, res := range []*Results{nilRes, emptyRes} {
		if len(res.Faults) != 0 || res.GoodputAvailability != 0 {
			t.Error("degradation metrics populated without a fault plan")
		}
		if res.TimedOut != 0 || res.Retried != 0 || res.CrashLostRPCs != 0 {
			t.Error("robustness counters touched without retry policy or faults")
		}
	}
}

// TestNoOpFaultPlanChangesNoOutcome: on every system, a plan whose one
// event changes nothing (loss at rate 0) leaves every RPC's outcome alone:
// the same RPCs issued and completed, the same RNL at every quantile. The
// plan's event is itself one more simulator event, so EventsProcessed is
// left out.
func TestNoOpFaultPlanChangesNoOutcome(t *testing.T) {
	for _, sys := range Systems() {
		t.Run(sys.String(), func(t *testing.T) {
			run := func(plan *FaultPlan) *Results {
				cfg := smallCluster(sys, 5)
				cfg.Duration, cfg.Warmup = 2*time.Millisecond, 500*time.Microsecond
				cfg.Faults = plan
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain := run(nil)
			noop := run(&FaultPlan{Events: []FaultEvent{LinkLossAt(0, "up-0", 0)}})
			if plain.Issued != noop.Issued || plain.Completed != noop.Completed {
				t.Errorf("issued/completed %d/%d without a plan, %d/%d with a no-op plan",
					plain.Issued, plain.Completed, noop.Issued, noop.Completed)
			}
			if !reflect.DeepEqual(plain.RNLRun, noop.RNLRun) {
				t.Errorf("RNL by class run\nwithout a plan: %+v\nwith a no-op plan: %+v", plain.RNLRun, noop.RNLRun)
			}
			if !reflect.DeepEqual(plain.RNLPriority, noop.RNLPriority) {
				t.Errorf("RNL by priority\nwithout a plan: %+v\nwith a no-op plan: %+v", plain.RNLPriority, noop.RNLPriority)
			}
		})
	}
}

// TestWeightScalingChangesNothing: WFQ serves classes by the ratios of
// their weights, so multiplying every weight by one factor must leave
// each outcome of a run as it was. The factors are powers of two, which
// scale a float64 exactly.
func TestWeightScalingChangesNothing(t *testing.T) {
	for _, sys := range []System{SystemBaseline, SystemAequitas} {
		t.Run(sys.String(), func(t *testing.T) {
			run := func(scale float64) string {
				cfg := smallCluster(sys, 5)
				cfg.Duration, cfg.Warmup = 2*time.Millisecond, 500*time.Microsecond
				for i := range cfg.QoSWeights {
					cfg.QoSWeights[i] *= scale
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return formatDigest(res)
			}
			want := run(1)
			for _, scale := range []float64{2, 0.5, 4} {
				if got := run(scale); got != want {
					t.Errorf("weights ×%v:\n got %s\nwant %s", scale, got, want)
				}
			}
		})
	}
}

// TestFaultRecoveryConvergence is the figure's claim as a regression test,
// on a smaller fabric: after a link flap and after a host crash/restart,
// the Aequitas probe's p_admit toward the faulted host must come back
// within 10% of its pre-fault mean before the run ends, and the QoS-bound
// auditor must stay clean outside the fault windows.
func TestFaultRecoveryConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-ms fault-recovery horizon")
	}
	const horizon = 50 * time.Millisecond
	plan := &FaultPlan{Events: []FaultEvent{
		LinkDownAt(horizon/5, HostLinkTarget(1)),
		LinkUpAt(horizon/5+1500*time.Microsecond, HostLinkTarget(1)),
		HostCrashAt(horizon/2, 1),
		HostRestartAt(horizon/2+2*time.Millisecond, 1),
	}}
	cfg := SimConfig{
		System: SystemAequitas, Hosts: 8, Seed: 1,
		Duration: horizon, Warmup: horizon / 8,
		QoSWeights: []float64{8, 4, 1},
		SLOs: []SLO{
			{Target: 50 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 90},
			{Target: 100 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 80},
		},
		Admission: AdmissionParams{Alpha: 0.05, Beta: 0.01, Floor: 0.08},
		Traffic: []HostTraffic{{
			AvgLoad: 0.5, BurstLoad: 0.9,
			Classes: []TrafficClass{
				{Priority: PC, Share: 0.5, FixedBytes: 32 << 10},
				{Priority: NC, Share: 0.3, FixedBytes: 32 << 10},
				{Priority: BE, Share: 0.2, FixedBytes: 32 << 10},
			},
		}},
		Probes:      []Probe{{Src: 0, Dst: 1, Class: High}},
		SampleEvery: horizon / 800,
		Faults:      plan,
		Retry:       RetryParams{Timeout: time.Millisecond, MaxRetries: 2},
	}
	// Audit against loose explicit bounds (the derived calculus bounds
	// assume an admissible share mix this chaos scenario doesn't claim):
	// ordinary congestion at this load stays well inside them, while a
	// 1.5ms blackhole's queue residencies exceed them by an order of
	// magnitude, so any fault leakage outside the windows would be caught.
	cfg.Obs.Audit = true
	cfg.Obs.AuditBoundsUS = []float64{100, 200}
	cfg.Obs.AuditSlackUS = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	onsets := 0
	for _, f := range res.Faults {
		if !f.Onset() {
			continue
		}
		onsets++
		if len(f.PAdmitRecoveryS) != 1 {
			t.Fatalf("fault %s: %d recovery entries, want 1 per probe", f.Event, len(f.PAdmitRecoveryS))
		}
		r := f.PAdmitRecoveryS[0]
		if math.IsNaN(r) {
			t.Errorf("%s at %.1fms: p_admit never re-converged to the pre-fault mean", f.Event, 1e3*f.TimeS)
		} else if r <= 0 {
			t.Errorf("%s: non-positive recovery time %g", f.Event, r)
		}
	}
	if onsets != 2 {
		t.Fatalf("recorded %d fault onsets, want 2 (linkdown, crash)", onsets)
	}
	if res.GoodputAvailability <= 0 || res.GoodputAvailability > 1 {
		t.Errorf("GoodputAvailability = %g", res.GoodputAvailability)
	}

	// The auditor may flag queueing during the outages (paused egress
	// queues legitimately hold packets for the whole blackhole) and
	// during the recovery transient just after, but the rest of the run
	// must respect the calculus bounds.
	if res.Audit == nil {
		t.Fatal("no audit report")
	}
	margin := sim.FromStd(5 * time.Millisecond)
	windows := plan.Windows()
	for _, v := range res.Audit.Violations {
		at := sim.FromMicros(v.TimeUS)
		inFault := false
		for _, w := range windows {
			if w.Contains(at, margin) {
				inFault = true
				break
			}
		}
		if !inFault {
			t.Errorf("audit violation outside fault windows: %+v", v)
		}
	}
}

// TestChaosFlapCrashSmoke is the CI chaos gate (run under -race): a seeded
// flap+crash preset with retries and hedging enabled must complete, emit
// fault records, and keep its degradation accounting self-consistent.
func TestChaosFlapCrashSmoke(t *testing.T) {
	plan, err := FaultPreset("flapcrash", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultTestConfig(3, plan)
	cfg.Retry.HedgeAfter = 500 * time.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed under the chaos plan")
	}
	if len(res.Faults) != 4 {
		t.Errorf("fault records = %d, want 4 (down, up, crash, restart)", len(res.Faults))
	}
	if res.TimedOut == 0 || res.Retried == 0 {
		t.Errorf("blackhole provoked no timeouts/retries: %+v", res)
	}
	if res.Hedged == 0 {
		t.Error("hedging enabled but nothing hedged")
	}
	if res.GoodputAvailability <= 0 || res.GoodputAvailability > 1 {
		t.Errorf("GoodputAvailability = %g", res.GoodputAvailability)
	}
	if res.HedgeWins > res.Hedged || res.Retried > res.TimedOut*int64(cfg.Retry.MaxRetries) {
		t.Errorf("inconsistent robustness counters: %+v", res)
	}
}
