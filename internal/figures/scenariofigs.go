package figures

import (
	"fmt"
	"io"
	"math"

	"aequitas"
	"aequitas/internal/stats"
)

// loadStepConfigs doubles the offered load mid-run and tracks the admit
// probability per class: Aequitas reacts by cutting p_admit for the
// high classes and settles on a new, lower operating point — the
// load-shape counterpart of the Fig 15 mix convergence.
func loadStepConfigs(o Options) []aequitas.SimConfig {
	horizon := 2 * o.Dur
	cfg := Cluster(o, aequitas.SystemAequitas, [3]float64{0.5, 0.3, 0.2})
	cfg.Duration, cfg.Warmup = horizon, o.Dur/4
	cfg.Traffic[0].AvgLoad, cfg.Traffic[0].BurstLoad = 0.45, 0.8
	cfg.Traffic[0].Shape = aequitas.StepLoad(o.Dur, 2)
	cfg.Probes = []aequitas.Probe{
		{Src: 0, Dst: 1, Class: aequitas.High},
		{Src: 0, Dst: 1, Class: aequitas.Medium},
	}
	cfg.SampleEvery = horizon / 400
	return []aequitas.SimConfig{cfg}
}

func figLoadStep(w io.Writer, o Options, res []*aequitas.Results) error {
	stepAt := o.Dur
	horizon := 2 * o.Dur
	high, med := res[0].Probes[0].AdmitProbability, res[0].Probes[1].AdmitProbability

	// Time-bucketed p_admit around the step.
	const buckets = 16
	tb := stats.NewTable("t(ms)", "p_admit QoSh", "p_admit QoSm")
	width := horizon.Seconds() / buckets
	for i := 0; i < buckets; i++ {
		t0, t1 := float64(i)*width, float64(i+1)*width
		h := high.MeanBetween(t0, t1)
		if math.IsNaN(h) {
			continue // before warmup: probes not yet sampled
		}
		tb.AddRow(fmt.Sprintf("%5.1f%s", 1e3*t0, stepMark(t0, t1, stepAt.Seconds())),
			h, med.MeanBetween(t0, t1))
	}
	tb.Write(w)

	pre := high.MeanBetween(0.5*stepAt.Seconds(), stepAt.Seconds())
	post := high.MeanBetween(stepAt.Seconds(), 1.5*stepAt.Seconds())
	final := high.MeanBetween(1.75*stepAt.Seconds(), horizon.Seconds())
	fmt.Fprintf(w, "QoSh p_admit: %.2f before the step, %.2f during re-convergence, %.2f settled\n",
		pre, post, final)
	settle := high.SettlingTime(0.1)
	if !math.IsNaN(settle) && settle > stepAt.Seconds() {
		fmt.Fprintf(w, "re-stabilised within 10%% of the final value %.1fms after the step\n",
			1e3*(settle-stepAt.Seconds()))
	}
	fmt.Fprintln(w, "doubling offered load halves the admissible QoSh share; the controller")
	fmt.Fprintln(w, "finds the new operating point without restarting (load-shape engine)")
	return nil
}

// stepMark annotates the bucket containing the load step.
func stepMark(t0, t1, step float64) string {
	if t0 <= step && step < t1 {
		return " <-step"
	}
	return ""
}
