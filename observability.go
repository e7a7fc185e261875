package aequitas

import (
	"io"

	"aequitas/internal/obs"
	"aequitas/internal/obs/flight"
)

// ObsConfig configures the per-run observability layer: the RPC-lifecycle
// tracer and the sinks it feeds (NDJSON event stream, latency
// attribution, QoS-bound audit, tail series), and the metrics registry
// sampling per-port queue occupancy, per-(dst, class) admission state, and
// per-connection transport state on a simulated-time ticker. The zero
// value disables everything at zero hot-path cost.
//
// Each run owns its tracer and registry and writes output at the end of
// Run, so the streams are deterministic for a fixed SimConfig regardless
// of sweep parallelism; configurations run concurrently must not share
// writers.
type ObsConfig struct {
	// TraceNDJSON receives the lifecycle event stream as NDJSON (see
	// internal/obs for the schema). Setting it makes the tracer record
	// every event.
	TraceNDJSON io.Writer
	// MetricsCSV receives the wide-format metrics time series (column
	// t_s plus one column per metric), sampled every 100 µs of simulated
	// time. Setting it enables the registry.
	MetricsCSV io.Writer
	// TailSeries adds a windowed tail time-series to the metrics CSV:
	// per (destination, run-class) channel, each registry tick emits the
	// window's completed-RPC count and RNL p50/p90/p99/p99.9
	// ("tail.d<dst>.q<class>.{n,p50_us,p90_us,p99_us,p999_us}" columns)
	// from a log-linear histogram that resets every window. Requires
	// MetricsCSV; the window is the 100 µs sampling interval.
	TailSeries bool

	// FlightNDJSON receives flight-recorder dumps as schema-tagged NDJSON
	// ("aequitas.flight/v1"). Setting it attaches one shared flight ring
	// of 16 384 records to every host's admission controller: each
	// decision and SLO observation becomes a fixed-size record (the ring
	// keeps 1 in 8 admit and SLO-met records and every downgrade, drop
	// and SLO miss), and the ring is dumped on every fault onset in the
	// run's fault plan (resetting afterwards, so consecutive dumps
	// partition the timeline), on every anomaly-engine trigger when
	// FlightEngine is set, and once more when the run ends.
	// Recording draws no randomness and reads only simulated time, so for
	// a fixed SimConfig the dump bytes are identical regardless of sweep
	// parallelism.
	FlightNDJSON io.Writer
	// FlightEngine, when set alongside FlightNDJSON, runs the SLO
	// burn-rate anomaly engine on the metrics cadence (100 µs):
	// cumulative SLO counters and the minimum live admit probability are
	// fed to the engine each tick, and a trigger dumps and resets the
	// ring.
	FlightEngine *flight.EngineConfig

	// Attribution enables per-RPC latency decomposition: every completed
	// RPC's RNL is split into admission, sender-host queueing, transport
	// (window/CC), pacing stalls, NIC and switch queue residency, and a
	// wire residual. Per-class mean breakdowns land in
	// Results.Attribution.
	Attribution bool
	// AttributionCSV, when set, additionally receives one wide CSV row
	// per completed RPC's decomposition (implies Attribution). The stream
	// is deterministic for a fixed SimConfig regardless of sweep
	// parallelism.
	AttributionCSV io.Writer
	// Audit enables the online QoS-bound auditor: observed per-hop queue
	// residencies and per-RPC fabric queueing are checked against the
	// per-class worst-case bounds of the network-calculus model, and
	// violations are recorded with the offending RPC ids in Results.Audit.
	Audit bool
	// AuditBoundsUS overrides the per-class queueing bounds in
	// microseconds (highest class first). nil derives them from the first
	// Traffic entry's mix and load via QueueingBoundsUS, which assumes
	// the per-port load matches that entry's AvgLoad/BurstLoad (true for
	// the uniform all-to-all pattern); set explicit bounds for other
	// patterns.
	AuditBoundsUS []float64
	// AuditSlackUS is headroom added to every bound before flagging,
	// absorbing the packet-vs-fluid gap between the discrete simulator
	// and the fluid model (EXPERIMENTS.md's Fig-10 table puts it at
	// 0.03-0.04 of a burst period). Default: 10% of BurstPeriod.
	AuditSlackUS float64
}

// registry returns the run's metrics registry, or nil when metrics are
// off.
func (o *ObsConfig) registry() *obs.Registry {
	if o.MetricsCSV == nil {
		return nil
	}
	return obs.NewRegistry()
}

// CSVTrace wraps a per-RPC CSV trace destination (SimConfig.TraceWriter)
// and guarantees the header line is written exactly once for the sink's
// lifetime — even when the same sink is reused across runs, as happens
// when a run is retried into one output file. Like any TraceWriter it
// serves one run at a time (see RunMany), so the latch needs no lock.
type CSVTrace struct {
	W io.Writer

	headerDone bool
}

// NewCSVTrace wraps w as a header-once trace sink.
func NewCSVTrace(w io.Writer) *CSVTrace { return &CSVTrace{W: w} }

// Write implements io.Writer.
func (t *CSVTrace) Write(p []byte) (int, error) { return t.W.Write(p) }

// claimHeader reports whether the caller should write the header,
// flipping the once-only latch.
func (t *CSVTrace) claimHeader() bool {
	if t.headerDone {
		return false
	}
	t.headerDone = true
	return true
}
