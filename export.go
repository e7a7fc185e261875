package aequitas

import (
	"fmt"

	"aequitas/internal/obs"
	"aequitas/internal/sim"
)

// snapshot assembles the live-export view of the run at now: lifecycle
// and robustness counters, the metrics registry's latest gauge row,
// per-probe admit probabilities, the overall goodput fraction, and the
// cumulative per-class RNL histograms. Runs on the simulator thread; the
// returned Snapshot is freshly allocated and never mutated after
// Publish, so HTTP readers need no further coordination.
func (st *runState) snapshot(now sim.Time, final bool) *obs.Snapshot {
	col := st.col
	s := &obs.Snapshot{
		Schema:   obs.SnapshotSchema,
		Label:    st.cfg.Obs.ExportLabel,
		SimTimeS: now.Seconds(),
		Final:    final,
	}
	if s.Label == "" {
		s.Label = st.cfg.System.String()
	}

	counter := func(name string, v int64) {
		s.Counters = append(s.Counters, obs.NamedValue{Name: name, Value: float64(v)})
	}
	counter("rpcs_issued_total", col.issued)
	counter("rpcs_completed_total", col.completed)
	counter("rpcs_downgraded_total", col.downgraded)
	counter("rpcs_dropped_total", col.dropped)
	counter("completed_payload_bytes_total", col.completedPayloadBytes)
	counter("faults_applied_total", int64(len(col.faultMarks)))
	var timedOut, retried, hedged, failed int64
	for _, stack := range col.stacks {
		timedOut += stack.Stats.TimedOut
		retried += stack.Stats.Retried
		hedged += stack.Stats.Hedged
		failed += stack.Stats.Failed
	}
	counter("rpcs_timed_out_total", timedOut)
	counter("rpcs_retried_total", retried)
	counter("rpcs_hedged_total", hedged)
	counter("rpcs_failed_total", failed)

	// Goodput so far: completed payload bytes over offered bytes (whole
	// run, not warmup-gated — this is a live progress gauge, not the
	// measurement-window result).
	var offered int64
	for _, g := range col.gens {
		offered += g.Offered.Total()
	}
	if offered > 0 {
		s.Gauges = append(s.Gauges, obs.NamedValue{
			Name:  "goodput.fraction",
			Value: float64(col.completedPayloadBytes) / float64(offered),
		})
	}
	for _, ps := range col.probes {
		s.Gauges = append(s.Gauges, obs.NamedValue{
			Name:  probeGaugeName(ps.p),
			Value: st.controllers[ps.p.Src].AdmitProbability(ps.p.Dst, ps.p.Class),
		})
	}
	st.registry.LatestGauges(func(name string, v float64) {
		s.Gauges = append(s.Gauges, obs.NamedValue{Name: name, Value: v})
	})

	for cl, h := range col.expRNL {
		if h != nil {
			s.Hists = append(s.Hists, obs.SnapHist("rnl_us", "class", Class(cl).String(), h))
		}
	}
	return s
}

// probeGaugeName names a probe's admit-probability gauge in the dotted
// registry convention.
func probeGaugeName(p Probe) string {
	return fmt.Sprintf("p_admit.s%d.d%d.q%d", p.Src, p.Dst, int(p.Class))
}
