package aequitas

import (
	"math"
	"sort"

	"aequitas/internal/obs"
	"aequitas/internal/stats"
)

// The result types below are the types the internal packages compute,
// so a run's results are never copied field by field.
type (
	// Point is an (x, y) pair in plot-style outputs (CDFs).
	Point = stats.Point
	// Series is a time series; T is in simulated seconds.
	Series = stats.Series
	// LatencySummary reports RNL statistics in microseconds; Results'
	// summaries are exact order statistics (summarizeUS).
	LatencySummary = obs.QuantilesUS
	// Attribution is one class's mean latency decomposition; see
	// ObsConfig.Attribution.
	Attribution = obs.ClassAttribution
	// AuditViolation is one QoS-bound breach recorded by the online
	// auditor.
	AuditViolation = obs.AuditViolation
	// AuditClass is the auditor's per-class summary.
	AuditClass = obs.AuditClassReport
	// AuditReport is the online QoS-bound auditor's verdict for one run.
	AuditReport = obs.AuditReport
)

func summarizeUS(s *stats.Sample) LatencySummary {
	if s.N() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		N:      int64(s.N()),
		MeanUS: s.Mean(),
		P50US:  s.Quantile(0.50),
		P90US:  s.Quantile(0.90),
		P99US:  s.Quantile(0.99),
		P999US: s.Quantile(0.999),
		MaxUS:  s.Max(),
	}
}

// FaultRecord reports one applied fault event and, for degradation-onset
// events (link down, loss, host crash), how long each probe's p_admit
// took to re-converge afterwards.
type FaultRecord struct {
	// TimeS is the simulated time the injector applied the event.
	TimeS float64
	// Event is the fault kind's name in the plan grammar; Target is the
	// link name or "host:N".
	Event, Target string
	// Rate is the loss probability for "loss" events, 0 otherwise.
	Rate float64
	// PAdmitRecoveryS[i] is, for Results.Probes[i], the time from this
	// fault until the probe's admit probability climbed back to within
	// 10% of its pre-fault mean and stayed there until the next onset
	// fault (or the end of the run). NaN when it never re-converged; only
	// populated for onset events (link down, loss with rate > 0, crash).
	PAdmitRecoveryS []float64
	// onset is what FaultEvent.Onset said when the event was applied.
	onset bool
}

// Onset reports whether the event degrades service (as opposed to
// repairing it), i.e. whether recovery is measured from it.
func (f FaultRecord) Onset() bool { return f.onset }

// faultRecovery measures how long after faultS the series takes to climb
// back to within tol (relative) of its pre-fault mean and stay there
// until horizonS. The bound is one-sided — exceeding the pre-fault mean
// counts as recovered, since the baseline itself may still be depressed
// from an earlier fault. The pre-fault baseline is the mean over the
// last quarter of the series before the fault. Returns NaN when there is
// no usable baseline, no samples in [faultS, horizonS), or the series
// never settles back in band.
func faultRecovery(ser Series, faultS, horizonS, tol float64) float64 {
	if len(ser.T) == 0 || faultS <= ser.T[0] {
		return math.NaN()
	}
	pre := ser.MeanBetween(faultS-(faultS-ser.T[0])/4, faultS)
	if math.IsNaN(pre) {
		pre = ser.MeanBetween(ser.T[0], faultS)
	}
	if math.IsNaN(pre) {
		return math.NaN()
	}
	band := tol * math.Abs(pre)
	if band == 0 {
		band = tol
	}
	recovered := math.NaN() // first in-band time after the latest violation
	seen := false
	for i, t := range ser.T {
		if t < faultS || t >= horizonS {
			continue
		}
		seen = true
		if ser.V[i] < pre-band {
			recovered = math.NaN()
		} else if math.IsNaN(recovered) {
			recovered = t
		}
	}
	if !seen || math.IsNaN(recovered) {
		return math.NaN()
	}
	return recovered - faultS
}

// ProbeResult is the recorded series for one (src, dst, class) channel.
type ProbeResult struct {
	Src, Dst int
	Class    Class
	// AdmitProbability is p_admit over time (1.0 for non-Aequitas runs).
	AdmitProbability Series
	// ThroughputGbps is the channel's goodput on the probed class.
	ThroughputGbps Series
}

// Results reports one simulation run.
type Results struct {
	System System

	// RNLRun summarises RPC network latency by the class the RPC
	// actually ran on (downgraded RPCs count toward the scavenger
	// class), the per-QoS view of Figures 11, 12, 19, 21.
	RNLRun map[Class]LatencySummary
	// RNLPriority summarises RNL by the application's original priority
	// regardless of downgrades.
	RNLPriority map[Priority]LatencySummary

	// SLOMetBytesFraction is the byte-weighted fraction of each
	// priority's traffic (issued in the measurement window) that
	// completed within its original class's normalised SLO — Figure 22's
	// "traffic meeting SLOs". RPCs that never completed count as
	// misses.
	SLOMetBytesFraction map[Priority]float64
	// SLOMetCountFraction is the same, weighted per RPC.
	SLOMetCountFraction map[Priority]float64
	// SLOMetRunBytesFraction is the byte-weighted fraction of traffic
	// that ran on each SLO-carrying class and met that class's target —
	// the compliance of *admitted* traffic, the paper's correctness
	// criterion (§6.2).
	SLOMetRunBytesFraction map[Class]float64

	// InputMix is the byte share each class was requested at;
	// AdmittedMix is the byte share actually issued per class after
	// admission control (Figure 15's "Admitted").
	InputMix, AdmittedMix []float64

	Issued, Completed, Downgraded, Dropped int64
	// Terminated counts RPCs abandoned by deadline-based baselines.
	Terminated int64

	// EventsProcessed is the total number of discrete-event-simulator
	// events the run fired; PacketsDelivered counts packets transmitted on
	// last-hop downlinks. Both cover the whole run (warmup and drain
	// included) and exist for the bench harness's events/sec and
	// packets/sec throughput metrics.
	EventsProcessed  int64
	PacketsDelivered int64

	// GoodputFraction is completed payload bytes over offered payload
	// bytes in the measurement window (Figure 22's network utilisation),
	// clamped to 1 for reporting. RawGoodputRatio is the same ratio
	// unclamped; a value above 1 indicates a measurement-accounting error
	// (completions credited outside the offered-byte window).
	GoodputFraction float64
	RawGoodputRatio float64
	// AvgDownlinkUtilization is the mean busy fraction of switch egress
	// ports during the measurement window.
	AvgDownlinkUtilization float64

	// Attribution is the per-class mean latency decomposition; nil unless
	// ObsConfig enables attribution.
	Attribution map[Class]Attribution
	// Audit is the QoS-bound auditor's verdict; nil unless ObsConfig.Audit
	// is set.
	Audit *AuditReport

	Probes []ProbeResult

	// Faults lists the fault events applied during the run with per-probe
	// p_admit recovery times; empty unless SimConfig.Faults was set.
	Faults []FaultRecord
	// GoodputAvailability is the fraction of coarse time bins across the
	// measurement window whose completed bytes reached at least half the
	// per-bin mean — a crude "what fraction of the run delivered useful
	// goodput" availability figure. Zero unless a fault plan was active.
	GoodputAvailability float64
	// Client-side robustness counters summed over all hosts' RPC stacks;
	// all zero unless SimConfig.Retry or Faults put them to work.
	TimedOut, Retried, Hedged, HedgeWins int64
	// FailedRPCs exhausted their retry budget; CrashLostRPCs were in
	// flight on a host when it crashed; NotIssuedRPCs were generated while
	// their source host was down.
	FailedRPCs, CrashLostRPCs, NotIssuedRPCs int64

	// OutstandingHighMed / OutstandingLow are CDFs of per-switch-port
	// outstanding RPC counts for the SLO classes and the scavenger class
	// (Figure 13); empty unless TrackOutstanding was set.
	OutstandingHighMed, OutstandingLow []Point

	// rnlRun retains the raw samples by class for quantile queries.
	rnlRun []*stats.Sample
}

// RNLQuantileUS returns the q-quantile (0..1) of RNL in microseconds for
// RPCs that ran on class c, or 0 when no samples exist.
func (r *Results) RNLQuantileUS(c Class, q float64) float64 {
	if uint(c) >= uint(len(r.rnlRun)) || r.rnlRun[c] == nil || r.rnlRun[c].N() == 0 {
		return 0
	}
	return r.rnlRun[c].Quantile(q)
}

// Classes returns the run classes with samples, sorted.
func (r *Results) Classes() []Class {
	var cs []Class
	for c := range r.RNLRun {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	return cs
}
