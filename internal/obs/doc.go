// Package obs is the simulation-wide observability layer: the
// RPC-lifecycle tracer and the sinks it feeds, a metrics registry with
// periodic simulated-time samplers, and profiling helpers.
//
// # One lifecycle observer
//
// A Tracer is a run's one lifecycle observer. netsim.Link,
// transport.Config, rpc.Stack and scenario.Env each hold one *Tracer and
// report every event to it once: issue, admit, enqueue, tail emit, pacing
// stall, hop, drop, complete, lost and fault. NewTracer takes the run's
// Sinks and feeds them:
//
//	Record  keeps every event for WriteNDJSON (the trace schema below)
//	Attr    the Attributor: each completed RPC's latency decomposition
//	Audit   the Auditor: every data packet's queue residency against its
//	        class bound, and each completed RPC's fabric queueing and RNL
//	Tails   the TailTracker: each completed RPC's RNL on its (dst, class)
//	        channel, emitted as a windowed tail series by the registry
//
// The layer is designed around one invariant: when disabled it costs
// nothing on the hot path. NewTracer returns nil when no sink is on, and
// every Tracer method is safe to call on a nil receiver and returns
// immediately without allocating, so instrumented code holds a
// possibly-nil *Tracer and calls it unconditionally (or behind a nil
// check when argument evaluation itself would do work). The obs test
// suite enforces zero allocations per disabled event with
// testing.AllocsPerRun.
//
// # Trace schema
//
// A Tracer records the full RPC lifecycle as a flat event stream:
//
//	issue     the application issued an RPC (src, dst, prio, class, bytes)
//	admit     the admission decision, with the admit probability used
//	          (decision ∈ admit|downgrade|drop, p_admit ∈ [0, 1])
//	enqueue   the RPC's first packet was handed to the host NIC queue
//	hop       a packet left one egress queue (link, queue residency,
//	          queued bytes remaining after dequeue)
//	drop      a packet was dropped by an egress scheduler
//	complete  the last byte was acknowledged (rnl_us)
//	fault     an injected fault was applied (event ∈ the simulator's
//	          fault kinds, target, rate ∈ [0, 1]; rpc is 0)
//
// WriteNDJSON emits one JSON object per line with the fields listed in
// the table below; BuildReport's trace reader checks a stream against this
// schema as it summarises it. Common fields: ts_us (non-negative,
// non-decreasing), kind, rpc. Kind-specific required fields:
//
//	issue:    src dst prio class bytes
//	admit:    src dst class decision p_admit
//	enqueue:  src dst class bytes
//	hop:      link class bytes resid_us qbytes
//	drop:     link class bytes
//	complete: src dst class bytes rnl_us
//	fault:    event target rate
//
// Each artifact format — this trace, the metrics CSV, the attribution CSV
// and the flight dump — has one reader, which validates as it summarises;
// cmd/obsreport is the command that runs them.
//
// Events are recorded in simulator order, so for a fixed configuration the
// stream, and every sink's output, is bit-identical regardless of how many
// sweep workers run other simulations concurrently — each run owns its
// Tracer and sinks.
package obs
