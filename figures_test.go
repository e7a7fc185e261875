// The tests in this file check the paper's figures at the root: each takes
// its configuration from the figure catalogue in internal/figures, so a
// checked setup and the one cmd/figures renders are the same value.
package aequitas_test

import (
	"math"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/calculus"
	"aequitas/internal/figures"
)

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
		res, err := aequitas.Run(figures.TheoryValidation(x, 7))
		if err != nil {
			t.Fatal(err)
		}
		periodUS := float64(period.Microseconds())
		simH := res.RNLRun[aequitas.High].MaxUS / periodUS
		simL := res.RNLRun[aequitas.Medium].MaxUS / periodUS
		wantH, wantL := theory.DelayHigh(x), theory.DelayLow(x)
		if math.Abs(simH-wantH) > 0.08 {
			t.Errorf("x=%.1f: QoSh delay %v, theory %v", x, simH, wantH)
		}
		if math.Abs(simL-wantL) > 0.10 {
			t.Errorf("x=%.1f: QoSl delay %v, theory %v", x, simL, wantL)
		}
	}
}

// TestAuditCleanFig10: in the admissible region the auditor confirms the
// run respects the calculus bounds — zero violations. The slack absorbs
// the packet-vs-fluid gap plus second-hop burst shaping: the first
// congested hop clumps each class's departures, so the downstream hop
// sees residencies up to ~2x a small bound (empirically +31us on both
// classes here). 0.12 of a period gives margin without masking an
// inversion, which overshoots by multiples of the period.
func TestAuditCleanFig10(t *testing.T) {
	const x = 0.7
	bounds, err := aequitas.QueueingBoundsUS([]float64{4, 1}, []float64{x, 1 - x}, 1.2, 0.8, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cfg := figures.TheoryValidation(x, 7)
	cfg.Obs.Audit = true
	cfg.Obs.AuditBoundsUS = bounds
	cfg.Obs.AuditSlackUS = 120
	res, err := aequitas.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Audit
	if rep == nil {
		t.Fatal("no audit report")
	}
	if !rep.Ok() || rep.TotalViolations != 0 {
		t.Fatalf("admissible run flagged: %d violations, first: %+v",
			rep.TotalViolations, rep.Violations)
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	for _, c := range rep.Classes {
		if c.N == 0 || c.Hops == 0 || c.MaxHopUS <= 0 {
			t.Errorf("class %v saw no traffic: %+v", c.Class, c)
		}
		if !c.Bounded {
			t.Errorf("class %v has no bound", c.Class)
		}
	}
}

// TestAuditFlagsOverAdmission: run the same fabric with everything
// admitted (baseline, p_admit = 1) at an inadmissible QoSh-share, audited
// against the bounds an operator provisioned for a much smaller share.
// The auditor must catch the over-admission.
func TestAuditFlagsOverAdmission(t *testing.T) {
	bounds, err := aequitas.QueueingBoundsUS([]float64{4, 1}, []float64{0.3, 0.7}, 1.2, 0.8, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cfg := figures.TheoryValidation(0.9, 7)
	cfg.Duration = 40 * time.Millisecond
	cfg.Obs.Audit = true
	cfg.Obs.AuditBoundsUS = bounds
	cfg.Obs.AuditSlackUS = 50
	res, err := aequitas.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Audit
	if rep == nil {
		t.Fatal("no audit report")
	}
	if rep.Ok() || rep.TotalViolations == 0 {
		t.Fatal("over-admitted run passed the audit")
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violations retained")
	}
	sawHigh := false
	for _, v := range rep.Violations {
		if v.ObservedUS <= v.BoundUS+rep.SlackUS {
			t.Errorf("violation not over bound+slack: %+v", v)
		}
		if v.RPC == 0 {
			t.Errorf("violation without an offending RPC id: %+v", v)
		}
		if v.Class == 0 {
			sawHigh = true
		}
	}
	if !sawHigh {
		t.Error("no QoSh violation despite QoSh over-admission")
	}
}

func TestBaselineOverloadViolatesSLO(t *testing.T) {
	cfg := figures.ThreeNode(aequitas.SystemBaseline, 15, 1)
	res, err := aequitas.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without admission control the 2× overload drives QoSh tail RNL far
	// beyond the 15 µs SLO.
	p999 := res.RNLQuantileUS(aequitas.High, 0.999)
	if p999 < 30 {
		t.Errorf("baseline QoSh 99.9p = %.1fus; expected gross SLO violation", p999)
	}
	if res.Downgraded != 0 {
		t.Errorf("baseline downgraded %d RPCs", res.Downgraded)
	}
}

func TestAequitasMeetsSLOUnderOverload(t *testing.T) {
	cfg := figures.ThreeNode(aequitas.SystemAequitas, 25, 1)
	cfg.Probes = []aequitas.Probe{{Src: 0, Dst: 2, Class: aequitas.High}}
	res, err := aequitas.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p999 := res.RNLQuantileUS(aequitas.High, 0.999)
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
	base, err := aequitas.Run(figures.ThreeNode(aequitas.SystemBaseline, 25, 2))
	if err != nil {
		t.Fatal(err)
	}
	aeq, err := aequitas.Run(figures.ThreeNode(aequitas.SystemAequitas, 25, 2))
	if err != nil {
		t.Fatal(err)
	}
	bp, ap := base.RNLQuantileUS(aequitas.High, 0.999), aeq.RNLQuantileUS(aequitas.High, 0.999)
	if ap >= bp {
		t.Errorf("Aequitas QoSh 99.9p %.1fus not better than baseline %.1fus", ap, bp)
	}
}

func TestSPQSystemRuns(t *testing.T) {
	cfg := figures.ThreeNode(aequitas.SystemSPQ, 15, 3)
	cfg.Duration = 30 * time.Millisecond
	cfg.Warmup = 10 * time.Millisecond
	res, err := aequitas.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// SPQ serves the high class strictly first: its tail should be small,
	// while the low class starves under 2x overload.
	hi := res.RNLQuantileUS(aequitas.High, 0.99)
	lo := res.RNLQuantileUS(aequitas.Low, 0.5)
	if hi <= 0 {
		t.Fatal("no QoSh samples")
	}
	if lo != 0 && lo < hi {
		t.Errorf("SPQ low class median %.1fus below high class p99 %.1fus", lo, hi)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := figures.ThreeNode(aequitas.SystemAequitas, 20, 9)
	cfg.Duration = 20 * time.Millisecond
	cfg.Warmup = 5 * time.Millisecond
	a, err := aequitas.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := aequitas.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.Downgraded != b.Downgraded {
		t.Errorf("non-deterministic: %d/%d vs %d/%d", a.Completed, a.Downgraded, b.Completed, b.Downgraded)
	}
	if a.RNLQuantileUS(aequitas.High, 0.999) != b.RNLQuantileUS(aequitas.High, 0.999) {
		t.Error("non-deterministic tail latency")
	}
}

// The input mix reported must reflect requested classes even when
// admission downgrades heavily.
func TestInputMixReflectsRequests(t *testing.T) {
	cfg := figures.ThreeNode(aequitas.SystemAequitas, 20, 4)
	cfg.Duration = 30 * time.Millisecond
	cfg.Warmup = 10 * time.Millisecond
	res, err := aequitas.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputMix[0] < 0.6 || res.InputMix[0] > 0.8 {
		t.Errorf("input QoSh share %.2f, offered 0.7", res.InputMix[0])
	}
	if res.AdmittedMix[0] >= res.InputMix[0] {
		t.Errorf("admitted %v not below input %v under overload", res.AdmittedMix[0], res.InputMix[0])
	}
	// Everything lands somewhere: admitted mix sums to ~1.
	var sum float64
	for _, x := range res.AdmittedMix {
		sum += x
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("admitted mix sums to %v", sum)
	}
}
