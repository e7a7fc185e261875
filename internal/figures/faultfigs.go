package figures

import (
	"fmt"
	"io"
	"math"
	"time"

	"aequitas"
	"aequitas/internal/stats"
)

// faultConfig is the shared scenario for the fault figure: moderate load,
// fixed-size RPCs, per-attempt timeouts with a small retry budget, and a
// plan that flaps host 1's access links mid-run and then crashes host 1.
// Recovery has to be observable on a tens-of-milliseconds horizon, which
// drives four deliberate departures from the paper's 99.9p evaluation
// settings: lower SLO percentiles shrink the additive-increase window
// (at 99.9 the controller recovers ~100x slower by design), a larger α
// speeds the walk back up, a higher floor keeps enough traffic admitted
// at the bottom that the controller isn't starved of the measurements it
// needs to climb, and the SLO targets are loose enough that completions
// on a congestion window still collapsed from the outage count as met —
// while a 1ms timeout fed to the controller as an SLO miss still craters
// p_admit during the outage itself.
func faultConfig(o Options, system aequitas.System, horizon time.Duration, plan *aequitas.FaultPlan) aequitas.SimConfig {
	return aequitas.SimConfig{
		System: system, Hosts: o.Nodes, Seed: o.Seed,
		Duration: horizon, Warmup: horizon / 8,
		QoSWeights: []float64{8, 4, 1},
		SLOs: []aequitas.SLO{
			{Target: 50 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 90},
			{Target: 100 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 80},
		},
		Admission: aequitas.AdmissionParams{Alpha: 0.05, Beta: 0.01, Floor: 0.08},
		Traffic: []aequitas.HostTraffic{{
			AvgLoad: 0.5, BurstLoad: 0.9,
			Classes: []aequitas.TrafficClass{
				{Priority: aequitas.PC, Share: 0.5, FixedBytes: 32 << 10},
				{Priority: aequitas.NC, Share: 0.3, FixedBytes: 32 << 10},
				{Priority: aequitas.BE, Share: 0.2, FixedBytes: 32 << 10},
			},
		}},
		Probes: []aequitas.Probe{
			{Src: 0, Dst: 1, Class: aequitas.High},
			{Src: 0, Dst: 1, Class: aequitas.Medium},
		},
		SampleEvery: horizon / 800,
		Faults:      plan,
		Retry:       aequitas.RetryParams{Timeout: time.Millisecond, MaxRetries: 2},
	}
}

// faultPlanFor builds the figure's canonical plan on a given horizon: a
// 1.5ms blackhole of host 1's access links at 20%, then a host 1
// crash/restart at 60%.
func faultPlanFor(horizon time.Duration) *aequitas.FaultPlan {
	down := 2 * horizon / 10
	crash := 6 * horizon / 10
	return &aequitas.FaultPlan{Events: []aequitas.FaultEvent{
		aequitas.LinkDownAt(down, aequitas.HostLinkTarget(1)),
		aequitas.LinkUpAt(down+1500*time.Microsecond, aequitas.HostLinkTarget(1)),
		aequitas.HostCrashAt(crash, 1),
		aequitas.HostRestartAt(crash+2*time.Millisecond, 1),
	}}
}

// faultConfigs runs the flap+crash plan under Aequitas and under the
// baseline.
func faultConfigs(o Options) []aequitas.SimConfig {
	horizon := 2 * o.Dur
	plan := faultPlanFor(horizon)
	return []aequitas.SimConfig{
		faultConfig(o, aequitas.SystemAequitas, horizon, plan),
		faultConfig(o, aequitas.SystemBaseline, horizon, plan),
	}
}

// figFaults prints the time-bucketed admit probability toward the faulted
// host with the fault events marked, the measured p_admit recovery time
// after each outage, and the graceful-degradation scoreboard (goodput
// availability, retries, losses) for both systems.
func figFaults(w io.Writer, o Options, res []*aequitas.Results) error {
	horizon := 2 * o.Dur
	aeq := res[0]

	// Time-bucketed p_admit toward the faulted host, fault events marked.
	high, med := aeq.Probes[0].AdmitProbability, aeq.Probes[1].AdmitProbability
	const buckets = 24
	width := horizon.Seconds() / buckets
	tb := stats.NewTable("t(ms)", "p_admit QoSh", "p_admit QoSm")
	for i := 0; i < buckets; i++ {
		t0, t1 := float64(i)*width, float64(i+1)*width
		h := high.MeanBetween(t0, t1)
		if math.IsNaN(h) {
			continue // before warmup: probes not yet sampled
		}
		tb.AddRow(fmt.Sprintf("%5.1f%s", 1e3*t0, faultMarks(aeq, t0, t1)),
			h, med.MeanBetween(t0, t1))
	}
	tb.Write(w)

	fmt.Fprintln(w, "\np_admit recovery (back within 10% of the pre-fault mean):")
	for _, f := range aeq.Faults {
		if !f.Onset() {
			continue
		}
		for i, r := range f.PAdmitRecoveryS {
			p := aeq.Probes[i]
			state := "not recovered before the next fault"
			if !math.IsNaN(r) {
				state = fmt.Sprintf("recovered in %.1fms", 1e3*r)
			}
			fmt.Fprintf(w, "  %-8s at %5.1fms, probe %d→%d %-6s: %s\n",
				f.Event, 1e3*f.TimeS, p.Src, p.Dst, p.Class, state)
		}
	}

	fmt.Fprintln(w, "\ngraceful degradation under the same plan:")
	sb := stats.NewTable("system", "goodput", "avail", "timeout", "retried", "failed", "crash-lost", "QoSh in-SLO")
	for _, r := range res {
		sb.AddRow(r.System.String(),
			fmt.Sprintf("%.1f%%", 100*r.GoodputFraction),
			fmt.Sprintf("%.1f%%", 100*r.GoodputAvailability),
			r.TimedOut, r.Retried, r.FailedRPCs, r.CrashLostRPCs,
			fmt.Sprintf("%.1f%%", 100*r.SLOMetRunBytesFraction[aequitas.High]))
	}
	sb.Write(w)
	fmt.Fprintln(w, "the admission controller sheds the faulted destination's classes during")
	fmt.Fprintln(w, "each outage and walks p_admit back to its pre-fault operating point;")
	fmt.Fprintln(w, "retries and the retry budget bound the damage to in-flight RPCs")
	return nil
}

// faultMarks annotates buckets containing fault events.
func faultMarks(res *aequitas.Results, t0, t1 float64) string {
	out := ""
	for _, f := range res.Faults {
		if t0 <= f.TimeS && f.TimeS < t1 {
			out += " <-" + f.Event
		}
	}
	return out
}
