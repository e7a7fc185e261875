package aequitas

import (
	"fmt"
	"slices"
	"time"

	"aequitas/internal/core"
	"aequitas/internal/qos"
	"aequitas/internal/scenario"
	"aequitas/internal/sim"
	"aequitas/internal/workload"
)

// SizeDist samples RPC payload sizes; see FixedSize, SizeChoice, and the
// Production* distributions.
type SizeDist = workload.SizeDist

// FixedSize returns a distribution that always yields n bytes.
func FixedSize(n int64) SizeDist { return workload.Fixed{Bytes: n} }

// SizeChoice returns a weighted mixture of fixed sizes.
func SizeChoice(sizes []int64, weights []float64) SizeDist {
	return workload.Choice{Sizes: sizes, Weights: weights}
}

// ProductionPCSizes, ProductionNCSizes and ProductionBESizes return
// production-shaped RPC size distributions following Figure 1.
func ProductionPCSizes() SizeDist { return workload.ProductionPC() }
func ProductionNCSizes() SizeDist { return workload.ProductionNC() }
func ProductionBESizes() SizeDist { return workload.ProductionBE() }

// System selects which end-to-end system the simulation runs.
type System int

const (
	// SystemBaseline is WFQ QoS with no admission control ("w/o
	// Aequitas").
	SystemBaseline System = iota
	// SystemAequitas is WFQ QoS plus the distributed admission
	// controller.
	SystemAequitas
	// SystemSPQ replaces WFQ with strict priority queuing (§6.7).
	SystemSPQ
	// SystemPFabric is the pFabric baseline: SRPT via remaining-size
	// packet priorities and drop-least-urgent switch queues.
	SystemPFabric
	// SystemQJump is the QJump baseline: per-level host rate limits with
	// strict priority in the fabric.
	SystemQJump
	// SystemD3 is the D3 baseline: deadline-driven rate allocation with
	// early termination of hopeless RPCs.
	SystemD3
	// SystemPDQ is the PDQ baseline: preemptive earliest-deadline-first
	// scheduling with early termination.
	SystemPDQ
	// SystemHoma is the Homa baseline: receiver-driven grants with SRPT
	// priorities.
	SystemHoma
)

// String is the system's name in the internal/scenario table.
func (s System) String() string {
	if !s.valid() {
		return fmt.Sprintf("System(%d)", int(s))
	}
	return scenario.Systems[s].Name
}

func (s System) valid() bool { return s >= 0 && int(s) < len(scenario.Systems) }

// Arrival selects the arrival process.
type Arrival int

const (
	// ArrivalPoisson uses exponential inter-arrival times (default).
	ArrivalPoisson Arrival = iota
	// ArrivalPeriodic uses deterministic spacing ("issue at line rate").
	ArrivalPeriodic
)

// TrafficClass describes one priority class's stream within a host's
// offered traffic.
type TrafficClass struct {
	Priority Priority
	// Share is the class's fraction of the host's offered bytes (the
	// input QoS-mix entry).
	Share float64
	// Size draws payload sizes; FixedBytes is a convenience alternative.
	Size       SizeDist
	FixedBytes int64
	// Deadline, when set, stamps RPCs with issue-time+Deadline for the
	// deadline-aware baselines.
	Deadline time.Duration
}

// HostTraffic assigns an offered-traffic specification to a set of
// sending hosts.
type HostTraffic struct {
	// Hosts lists sender host ids; nil means every host.
	Hosts []int
	// Dsts lists destination ids chosen uniformly per RPC (an id listed
	// twice is drawn twice as often); nil means all-to-all. A sender never
	// sends to itself: one listed here once draws from the other ids, and
	// one listed alone or more than once is an error.
	Dsts []int
	// Pattern, when set, generates the sender→destination matrix instead
	// of Hosts/Dsts (which must then stay nil). See UniformPattern,
	// IncastPattern, PermutationPattern and HotspotPattern.
	Pattern TrafficPattern
	// AvgLoad is µ, the mean offered load as a fraction of the link
	// rate. BurstLoad is ρ; when > AvgLoad the Figure 7 burst/idle
	// modulation is applied.
	AvgLoad, BurstLoad float64
	// Shape, when set, scales AvgLoad over simulated time (load steps,
	// ramps, on/off cycles); nil keeps the load constant. See
	// ConstantLoad, StepLoad, RampLoad and OnOffLoad.
	Shape LoadShape
	// Arrival selects Poisson (default) or Periodic arrivals.
	Arrival Arrival
	Classes []TrafficClass
}

// AdmissionParams tunes the Aequitas controller in a simulation.
type AdmissionParams struct {
	// Alpha, Beta, Floor default to 0.01 / 0.01 / 0.01 (§6.1).
	Alpha, Beta, Floor float64
	// Ablation switches; see the core package.
	NoIncrementWindow      bool
	NoSizeScaledMD         bool
	DropInsteadOfDowngrade bool
}

// withDefaults fills in the paper's evaluation settings (§6.1) for
// whatever is left zero.
func (p AdmissionParams) withDefaults() AdmissionParams {
	for _, v := range []*float64{&p.Alpha, &p.Beta, &p.Floor} {
		if *v == 0 {
			*v = 0.01
		}
	}
	return p
}

// Probe requests a time series of the admit probability and achieved
// goodput for one (src, dst, class) channel — the instrumentation behind
// Figures 17, 18, 28 and 29.
type Probe struct {
	Src, Dst int
	Class    Class
}

// SimConfig configures one simulation run.
type SimConfig struct {
	// System selects the end-to-end system (default SystemBaseline).
	System System
	// Hosts is the number of end hosts (≥ 2).
	Hosts int
	// Leaves and Spines, when non-zero, build a two-tier leaf-spine
	// fabric instead of the default single switch; hosts spread evenly
	// across leaves and overload can then occur in the core
	// (oversubscribe with SpineLinkRate below the host LinkRate or with
	// few spines).
	Leaves, Spines int
	// SpineLinkRate in bits/second (default: LinkRate).
	SpineLinkRate int64
	// LinkRate in bits/second (default 100 Gbps).
	LinkRate int64
	// PropDelay per link (default 500 ns).
	PropDelay time.Duration
	// Seed makes runs reproducible.
	Seed int64
	// Duration is the simulated time to run; Warmup (default 20% of
	// Duration) is excluded from all statistics.
	Duration, Warmup time.Duration
	// QoSWeights are the WFQ weights, highest class first (default
	// 8:4:1).
	QoSWeights []float64
	// PerClassBufferBytes bounds each switch-port class queue (default
	// 2 MiB; negative = unlimited, used for theory validation).
	PerClassBufferBytes int
	// SLOs per class, highest first, for every class except the lowest.
	// Required when System is SystemAequitas; optional otherwise (used
	// only for reporting SLO-met fractions).
	SLOs []SLO
	// Admission tunes the controller (SystemAequitas only).
	Admission AdmissionParams
	// Traffic is the offered workload (required).
	Traffic []HostTraffic
	// DisableCC replaces Swift with a fixed window of FixedWindow
	// packets (default 64).
	DisableCC   bool
	FixedWindow float64
	// RTOMin floors the retransmission timeout (default 100 µs).
	RTOMin time.Duration
	// BurstPeriod is the Figure 7 modulation period (default 100 µs).
	BurstPeriod time.Duration
	// Probes request admit-probability/goodput series.
	Probes []Probe
	// SampleEvery sets the probe/outstanding sampling interval (default
	// 100 µs).
	SampleEvery time.Duration
	// TrackOutstanding samples per-switch-port outstanding RPC counts
	// (Figure 13).
	TrackOutstanding bool
	// TraceWriter, when set, receives one CSV record per completed RPC
	// in the measurement window (header: complete_s, src, dst, priority,
	// requested, ran, downgraded, decision, p_admit, bytes, rnl_us) for
	// external analysis. The header is written once per sink, so it stays
	// one line when the sink outlives a retried run.
	TraceWriter *CSVTrace
	// Obs configures the observability layer, whose output is files: the
	// NDJSON lifecycle trace, the metrics CSV, the attribution CSV and the
	// flight dumps. The zero value disables it with no hot-path cost.
	Obs ObsConfig

	// Faults, when non-nil and non-empty, injects a deterministic fault
	// plan into the run — link down/up, per-link random loss, host
	// crash/restart — and populates the degradation metrics in Results.
	// nil or an empty plan leaves every code path identical to a run
	// without fault support. Plans may be shared across sweep configs;
	// they are never mutated.
	Faults *FaultPlan
	// Retry configures client-side RPC robustness (timeouts, exponential
	// backoff, a retry budget, optional hedged duplicates). The zero value
	// disables it.
	Retry RetryParams

	// resolved is the traffic matrix after applyDefaults: one entry per
	// (Traffic entry, pattern assignment) pair, with destination slices
	// shared across senders.
	resolved []resolvedTraffic
}

// resolvedTraffic is one validated sender→destination assignment.
type resolvedTraffic struct {
	traffic     int // index into SimConfig.Traffic
	hosts       []int
	dsts        []int
	weights     []float64
	excludeSelf bool
}

func (c *SimConfig) applyDefaults() error {
	if c.Hosts < 2 {
		return fmt.Errorf("aequitas: need ≥ 2 hosts")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("aequitas: Duration required")
	}
	if min(c.Warmup, c.PropDelay, c.RTOMin, c.BurstPeriod, c.SampleEvery) < 0 {
		return fmt.Errorf("aequitas: Warmup, PropDelay, RTOMin, BurstPeriod and SampleEvery must be non-negative")
	}
	if c.Warmup == 0 {
		c.Warmup = c.Duration / 5
	}
	if c.Warmup >= c.Duration {
		return fmt.Errorf("aequitas: warmup %v ≥ duration %v", c.Warmup, c.Duration)
	}
	if c.LinkRate == 0 {
		c.LinkRate = 100e9
	}
	if c.PropDelay == 0 {
		c.PropDelay = 500 * time.Nanosecond
	}
	if len(c.QoSWeights) == 0 {
		c.QoSWeights = []float64{8, 4, 1}
	}
	if err := qos.Weights(c.QoSWeights).Validate(); err != nil {
		return err
	}
	if c.PerClassBufferBytes == 0 {
		c.PerClassBufferBytes = 2 << 20
	}
	if c.PerClassBufferBytes < 0 {
		c.PerClassBufferBytes = 0 // unlimited
	}
	if c.System == SystemAequitas && len(c.SLOs) == 0 {
		return fmt.Errorf("aequitas: SystemAequitas requires SLOs")
	}
	if len(c.SLOs) >= len(c.QoSWeights) {
		return fmt.Errorf("aequitas: %d SLOs for %d QoS levels (the lowest class has no SLO)", len(c.SLOs), len(c.QoSWeights))
	}
	if len(c.Traffic) == 0 {
		return fmt.Errorf("aequitas: Traffic required")
	}
	if !c.System.valid() {
		return fmt.Errorf("aequitas: unknown system %v", c.System)
	}
	if err := c.resolveTraffic(); err != nil {
		return err
	}
	for i, p := range c.Probes {
		if p.Src < 0 || p.Src >= c.Hosts || p.Dst < 0 || p.Dst >= c.Hosts {
			return fmt.Errorf("aequitas: probe %d: %d→%d out of range [0,%d)", i, p.Src, p.Dst, c.Hosts)
		}
	}
	if c.FixedWindow == 0 {
		c.FixedWindow = 64
	}
	if c.RTOMin == 0 {
		c.RTOMin = 100 * time.Microsecond
	}
	if c.BurstPeriod == 0 {
		c.BurstPeriod = 100 * time.Microsecond
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 100 * time.Microsecond
	}
	c.Admission = c.Admission.withDefaults()
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("aequitas: %w", err)
	}
	if r := c.Retry; r.Timeout < 0 || r.MaxRetries < 0 || r.HedgeAfter < 0 || r.HedgeMaxBytes < 0 {
		return fmt.Errorf("aequitas: Retry fields must be non-negative")
	}
	return nil
}

// resolveTraffic validates every Traffic entry and expands it into
// concrete sender→destination assignments, up front, so an out-of-range
// host id or a bad pattern fails before the fabric is built and the
// error names the offending entry. The all-to-all default shares one id
// slice across all senders (with self excluded at draw time) instead of
// materialising an "everyone but me" copy per host.
func (c *SimConfig) resolveTraffic() error {
	all := scenario.AllHosts(c.Hosts)
	c.resolved = c.resolved[:0]
	for i := range c.Traffic {
		ht := &c.Traffic[i]
		for _, tc := range ht.Classes {
			if tc.Priority < 0 {
				return fmt.Errorf("aequitas: traffic entry %d: negative priority %d", i, tc.Priority)
			}
		}
		if ht.Pattern != nil {
			if ht.Hosts != nil || ht.Dsts != nil {
				return fmt.Errorf("aequitas: traffic entry %d: Pattern and explicit Hosts/Dsts are mutually exclusive", i)
			}
			as, err := ht.Pattern.Expand(c.Hosts)
			if err != nil {
				return fmt.Errorf("aequitas: traffic entry %d: %w", i, err)
			}
			for _, a := range as {
				c.resolved = append(c.resolved, resolvedTraffic{
					traffic: i, hosts: a.Hosts, dsts: a.Dsts,
					weights: a.Weights, excludeSelf: a.ExcludeSelf,
				})
			}
			continue
		}
		// A sender never draws itself: it is excluded at draw time, which
		// lets every sender share one destination slice and leaves the
		// draws of a sender absent from it unchanged.
		rt := resolvedTraffic{traffic: i, hosts: ht.Hosts, dsts: ht.Dsts, excludeSelf: true}
		if rt.hosts == nil {
			rt.hosts = all
		}
		for _, h := range ht.Hosts {
			if h < 0 || h >= c.Hosts {
				return fmt.Errorf("aequitas: traffic entry %d: host %d out of range [0,%d)", i, h, c.Hosts)
			}
		}
		for j, d := range ht.Dsts {
			if d < 0 || d >= c.Hosts {
				return fmt.Errorf("aequitas: traffic entry %d: destination %d out of range [0,%d)", i, d, c.Hosts)
			}
			// The generator skips one copy of a sender's own id, so a
			// sender listed twice would still draw itself.
			if slices.Contains(ht.Dsts[:j], d) && slices.Contains(rt.hosts, d) {
				return fmt.Errorf("aequitas: traffic entry %d: sender %d listed twice in Dsts", i, d)
			}
		}
		if rt.dsts == nil {
			rt.dsts = all
		}
		for _, h := range rt.hosts {
			if !slices.ContainsFunc(rt.dsts, func(d int) bool { return d != h }) {
				return fmt.Errorf("aequitas: traffic entry %d: host %d has no destination but itself", i, h)
			}
		}
		c.resolved = append(c.resolved, rt)
	}
	return nil
}

// levels reports the number of QoS classes.
func (c *SimConfig) levels() int { return len(c.QoSWeights) }

// coreConfig is the one translation from public SLOs and tuning to the
// Algorithm 1 configuration for levels classes, the lowest without an
// SLO.
func coreConfig(levels int, slos []SLO, p AdmissionParams) core.Config {
	p = p.withDefaults()
	cc := core.Config{
		Levels:            levels,
		LatencyTargets:    make([]sim.Duration, levels),
		TargetPercentiles: make([]float64, levels),
		Alpha:             p.Alpha,
		Beta:              p.Beta,
		Floor:             p.Floor,

		NoIncrementWindow:      p.NoIncrementWindow,
		NoSizeScaledMD:         p.NoSizeScaledMD,
		DropInsteadOfDowngrade: p.DropInsteadOfDowngrade,
	}
	for i, s := range slos {
		cc.LatencyTargets[i] = s.perMTU()
		cc.TargetPercentiles[i] = s.Percentile
		if s.Percentile == 0 {
			cc.TargetPercentiles[i] = 99.9
		}
	}
	return cc
}
