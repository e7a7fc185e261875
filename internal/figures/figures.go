// Package figures is the catalogue of the Aequitas paper's evaluation
// (§6 and the appendices): for every figure, the simulations it runs and
// the report that prints the rows/series the paper plots from their
// results. cmd/figures renders it; the root package's tests take the
// configurations they check from its builders. EXPERIMENTS.md records the
// comparison against the published numbers.
//
// Simulated experiments default to a reduced scale (fewer hosts, shorter
// horizon) that preserves the paper's shape — who wins, by what factor,
// where crossovers fall — while completing quickly.
package figures

import (
	"fmt"
	"io"
	"os"
	"time"

	"aequitas"
)

// Options carries the knobs every figure shares.
type Options struct {
	Nodes    int           // cluster size for "33-node" experiments
	Big      int           // cluster size for the "144-node" experiment
	Dur      time.Duration // simulated horizon for cluster experiments
	Long     time.Duration // horizon for convergence experiments
	Seed     int64
	Workers  int  // simulation worker-pool size (0 = GOMAXPROCS)
	Progress bool // report per-run sweep completion on stderr
}

// Figure is one regenerable experiment. Configs lists its simulations; it
// is nil for the analytic figures, which compute their rows in Report. Report writes the figure to w from the results of Configs(o),
// in order.
type Figure struct {
	ID, Desc string
	Configs  func(o Options) []aequitas.SimConfig
	Report   func(w io.Writer, o Options, res []*aequitas.Results) error
}

// All is the catalogue, sorted by ID as strings.
var All = []Figure{
	{"1", "RPC size CDFs per priority class (production-shaped)", nil, figSizes},
	{"10", "packet simulator vs closed-form theory (2 QoS, CC off)", simVsTheoryConfigs, figSimVsTheory},
	{"11", "SLO compliance: achieved RNL tracks the SLO knob (3-node)", sloKnobConfigs, figSLOKnob},
	{"12", "cluster RNL with vs without Aequitas vs SLOs", clusterSLOConfigs, figClusterSLO},
	{"13", "outstanding RPCs per switch port, before/after", outstandingConfigs, figOutstanding},
	{"14", "baseline 99.9p RNL vs QoSh-share (admissible region)", admissibleConfigs, figAdmissibleSweep},
	{"15", "admitted QoS-mix converges to target regardless of input", mixConfigs, figMixConvergence},
	{"16", "admitted QoSh-share vs burst load (inverse proportionality)", burstConfigs, figBurstiness},
	{"17", "fairness: 80 vs 40 Gbps channels converge to equal shares", fairnessConfigs, figFairness},
	{"18", "in-quota channel keeps p_admit ~1; max-min reclaim", maxMinConfigs, figMaxMin},
	{"19", "SPQ vs Aequitas as QoSh-share grows (race to the top)", spqConfigs, figSPQ},
	{"20", "size-normalised SLOs with mixed 32/64KB RPCs", mixedSizeConfigs, figMixedSizes},
	{"21", "large scale, production sizes, extreme burst", largeScaleConfigs, figLargeScale},
	{"22", "comparison with pFabric, QJump, D3, PDQ, Homa", relatedWorkConfigs, figRelatedWork},
	{"23", "testbed reproduction: 20 nodes, 8:4:1, QoS-mix convergence", testbedConfigs, figTestbed},
	{"28", "beta sensitivity: Fig 17/18 with beta=0.0015", betaConfigs, figBetaSensitivity},
	{"8", "theoretical 2-QoS worst-case delay, phi=4, mu=0.8, rho=1.2", nil, figTheory2QoS},
	{"9", "3-QoS fluid worst-case delay, weights 8:4:1 and 50:4:1", nil, figTheory3QoS},
	{"ablation", "design ablations: window, size-scaled MD, floor, drop", ablationConfigs, figAblations},
	{"attribution", "per-class latency breakdown (admit/host/transport/fabric) across systems", attributionConfigs, figAttribution},
	{"faults", "graceful degradation: p_admit dips and re-converges across a link flap and a host crash", faultConfigs, figFaults},
	{"guarantee", "S5.2 guaranteed-admission bound vs burstiness", nil, figGuarantee},
	{"loadstep", "convergence: p_admit re-converges after a 2x load step", loadStepConfigs, figLoadStep},
}

// Render runs f's simulations on the worker pool and writes its report to
// w. The output is identical for any o.Workers; only wall time changes.
func (f Figure) Render(w io.Writer, o Options) error {
	var res []*aequitas.Results
	if f.Configs != nil {
		var err error
		if res, err = aequitas.RunMany(f.Configs(o), o.parallel()); err != nil {
			return err
		}
	}
	return f.Report(w, o, res)
}

// parallel is the worker pool for o's simulations, with live "run k/n"
// completions on stderr when o.Progress is set. Progress goes to stderr
// so piped figure output stays clean.
func (o Options) parallel() aequitas.ParallelOptions {
	p := aequitas.ParallelOptions{Workers: o.Workers}
	if o.Progress {
		p.OnProgress = func(r aequitas.Progress) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "  run %d/%d failed (config %d): %v\n", r.Done, r.Total, r.Index, r.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "  run %d/%d done (config %d)\n", r.Done, r.Total, r.Index)
		}
	}
	return p
}

// each builds one configuration per swept value.
func each[T any](xs []T, f func(T) aequitas.SimConfig) []aequitas.SimConfig {
	cfgs := make([]aequitas.SimConfig, len(xs))
	for i, x := range xs {
		cfgs[i] = f(x)
	}
	return cfgs
}
