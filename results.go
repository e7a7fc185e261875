package aequitas

import (
	"fmt"
	"math"
	"sort"

	"aequitas/internal/obs"
	"aequitas/internal/stats"
)

// Point is an (x, y) pair in plot-style outputs (CDFs).
type Point struct{ X, Y float64 }

// Series is a time series; T is in simulated seconds.
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// Final returns the last value, or def when empty.
func (s Series) Final(def float64) float64 {
	if len(s.V) == 0 {
		return def
	}
	return s.V[len(s.V)-1]
}

// MeanAfter returns the mean of values with T ≥ start, or NaN when the
// series has no samples after start — distinguishing "no data" from a
// true zero mean. Use MeanAfterOK when an explicit ok flag is clearer.
func (s Series) MeanAfter(start float64) float64 {
	m, ok := s.MeanAfterOK(start)
	if !ok {
		return math.NaN()
	}
	return m
}

// MeanAfterOK returns the mean of values with T ≥ start and whether any
// sample lay in that range.
func (s Series) MeanAfterOK(start float64) (mean float64, ok bool) {
	var sum float64
	n := 0
	for i, t := range s.T {
		if t >= start {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// MeanBetween returns the mean of values with start ≤ T < end, or NaN
// when no sample lies in that window — e.g. the pre-step and post-step
// admit probabilities around a load step.
func (s Series) MeanBetween(start, end float64) float64 {
	var sum float64
	n := 0
	for i, t := range s.T {
		if t >= start && t < end {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// SettlingTime returns the earliest time after which all values stay
// within ±tol of the final value (convergence time, §6.6).
func (s Series) SettlingTime(tol float64) float64 {
	ser := stats.Series{T: s.T, V: s.V}
	return ser.SettlingTime(tol)
}

// LatencySummary reports RNL statistics in microseconds.
type LatencySummary struct {
	N                                          int
	MeanUS, P50US, P90US, P99US, P999US, MaxUS float64
}

func (l LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus",
		l.N, l.MeanUS, l.P50US, l.P90US, l.P99US, l.P999US, l.MaxUS)
}

func summarizeUS(s *stats.Sample) LatencySummary {
	if s.N() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		N:      s.N(),
		MeanUS: s.Mean(),
		P50US:  s.Quantile(0.50),
		P90US:  s.Quantile(0.90),
		P99US:  s.Quantile(0.99),
		P999US: s.Quantile(0.999),
		MaxUS:  s.Max(),
	}
}

// Attribution is the per-class mean latency decomposition of completed
// RPCs, in microseconds. The components sum to RNLUS by construction
// (WireUS is the residual: serialization, propagation, and the ack
// path). Populated when ObsConfig enables attribution.
type Attribution struct {
	// N is the number of completed RPCs attributed on this class.
	N int
	// AdmitUS is time from RPC issue to the admission verdict.
	AdmitUS float64
	// SenderUS is host-side queueing between admission and the first
	// byte entering the NIC egress queue, excluding pacing stalls.
	SenderUS float64
	// TransportUS is the window/congestion-control span from first
	// enqueue to the tail byte's enqueue, excluding pacing stalls.
	TransportUS float64
	// PacingUS is time the message's head-of-line bytes sat blocked on
	// the transport's sub-packet pacing gate.
	PacingUS float64
	// NICUS is the tail packet's residency in the host NIC egress queue.
	NICUS float64
	// SwitchUS is the tail packet's summed residency in switch queues.
	SwitchUS float64
	// WireUS is the residual: serialization, propagation, and ack-path
	// time not captured by the other components.
	WireUS float64
	// RNLUS is the mean measured RPC network latency.
	RNLUS float64
}

// AuditViolation is one QoS-bound breach recorded by the online auditor:
// either a single packet's switch-queue residency ("hop") or a completed
// RPC's total fabric queueing ("rpc") exceeding the class bound plus
// slack.
type AuditViolation struct {
	RPC   uint64
	Class Class
	// Kind is "hop" or "rpc".
	Kind string
	// Link names the offending egress port for hop violations.
	Link                        string
	TimeUS, ObservedUS, BoundUS float64
}

// AuditClass is the auditor's per-class summary.
type AuditClass struct {
	Class Class
	// N counts completed RPCs audited on this class.
	N int
	// RNL tails of audited RPCs, in microseconds.
	RNLP99US, RNLP999US, RNLMaxUS float64
	// Per-RPC total fabric queueing tails.
	QueueP99US, QueueMaxUS float64
	// MaxHopUS is the worst single-packet queue residency observed.
	MaxHopUS float64
	// Hops counts audited packet dequeues.
	Hops int64
	// BoundUS is the class's queueing bound; Bounded reports whether one
	// was configured (classes beyond the bound list are observed but not
	// checked).
	BoundUS float64
	Bounded bool
	// Violations counts breaches on this class (hop and rpc kinds).
	Violations int
}

// AuditReport is the online QoS-bound auditor's verdict for one run.
type AuditReport struct {
	// SlackUS is the headroom that was added to every bound.
	SlackUS float64
	Classes []AuditClass
	// Violations retains the earliest 64 breaches in time order;
	// TotalViolations counts all of them.
	Violations      []AuditViolation
	TotalViolations int
}

// Ok reports whether the auditor ran and observed no bound violations.
func (r *AuditReport) Ok() bool { return r != nil && r.TotalViolations == 0 }

// attributionSummary converts the attributor's per-class summaries to the
// root result type.
func attributionSummary(a *obs.Attributor) map[Class]Attribution {
	out := make(map[Class]Attribution)
	for _, s := range a.Summaries() {
		out[Class(s.Class)] = Attribution{
			N:           s.N,
			AdmitUS:     s.AdmitUS,
			SenderUS:    s.SenderUS,
			TransportUS: s.TransportUS,
			PacingUS:    s.PacingUS,
			NICUS:       s.NICUS,
			SwitchUS:    s.SwitchUS,
			WireUS:      s.WireUS,
			RNLUS:       s.RNLUS,
		}
	}
	return out
}

// auditReport converts the auditor's report to the root result type.
func auditReport(a *obs.Auditor) *AuditReport {
	rep := a.Report()
	out := &AuditReport{
		SlackUS:         rep.SlackUS,
		TotalViolations: rep.TotalViolations,
	}
	for _, c := range rep.Classes {
		out.Classes = append(out.Classes, AuditClass{
			Class:      Class(c.Class),
			N:          c.N,
			RNLP99US:   c.RNLP99US,
			RNLP999US:  c.RNLP999US,
			RNLMaxUS:   c.RNLMaxUS,
			QueueP99US: c.QueueP99US,
			QueueMaxUS: c.QueueMaxUS,
			MaxHopUS:   c.MaxHopUS,
			Hops:       c.Hops,
			BoundUS:    c.BoundUS,
			Bounded:    c.Bounded,
			Violations: c.Violations,
		})
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, AuditViolation{
			RPC:        v.RPC,
			Class:      Class(v.Class),
			Kind:       v.Kind,
			Link:       v.Link,
			TimeUS:     v.TimeUS,
			ObservedUS: v.ObservedUS,
			BoundUS:    v.BoundUS,
		})
	}
	return out
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
	// all zero unless SimConfig.Retry / Faults enable the tracked path.
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
