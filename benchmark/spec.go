package main

import (
	"bytes"
	"encoding/json"
)

// The tables below are the benchmark's definition; BENCHMARK.json is
// `go run ./benchmark -print-spec`, and the smoke test fails when the two
// drift apart.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 15

var workloads = []workloadSpec{
	{"sim-large-rpc", "32 KB RPCs, 57 packets each: event kernel, netsim, WFQ and transport do the work; per-RPC layers are bypassed"},
	{"sim-small-rpc", "one-MTU RPCs, 2.5 packets each: generator, RPC stack, admitter and collector weigh five times what they do at 32 KB; a WFQ gain should barely show"},
	{"sim-observed-faulted", "leaf-spine, production sizes, link flap, time-outs and retries, every observability sink on: the instrumented and degraded sim path"},
	{"serve-inproc", "serve middleware driven in process on the wall clock, hardened config, both AIMD branches live: admission stack is all the cost"},
	{"serve-loopback", "real aequitas-serve child over loopback, closed loop then 8000 req/s open loop: net/http dominates, admission gains should not show"},
}

// Every end-to-end metric is defined on every workload; README.md gives
// the definition per workload. Times from the simulator's clock (lat_p50_us
// on sim-*) are simulated microseconds, everything else is host time.
//
// Bounds come from the spreads README.md records (ten seeds per workload,
// twice): host time on this class of VM drifts over minutes, a run's
// median moves with it, and the interquartile spread of ns_per_op is 5-9 %
// of its median on every workload. A bound must stand well clear of that,
// so the host-time metrics carry the widest bound allowed; changes smaller
// than it are resolved with paired alternating runs and with the counts
// (allocs_per_op here, sim.events_per_rpc and the rungs per layer).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ns_per_op", "ns", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.08},
	{"pc_slo_met_frac", "fraction", "higher", 0.10},
	{"qosh_slo_met_frac", "fraction", "higher", 0.02},
	{"lat_p50_us", "us", "lower", 0.25},
}

func layer(name, unit, better string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better}
}

// cpuShareLayers are the buckets a CPU profile's leaf functions fall
// into, by package.
var cpuShareLayers = []string{"sim", "netsim", "wfq", "transport", "rpc", "core", "workload", "stats",
	"obs", "faults", "root", "serve", "runtime", "other"}

var perLayer = func() []metricSpec {
	ms := []metricSpec{
		// Exact simulated results and counts, sim-* workloads.
		layer("results.qosh_p999_rnl_us", "us", "lower"),
		layer("results.qosh_samples", "count", "higher"),
		layer("sim.events_per_rpc", "count", "lower"),
		layer("netsim.packets_per_rpc", "count", "lower"),
		layer("sim.events_per_s", "1/s", "higher"),
		layer("runtime.alloc_bytes_per_rpc", "bytes", "lower"),
		layer("core.downgraded_frac", "fraction", "lower"),
		layer("rpc.retried_per_rpc", "count", "lower"),
		layer("rpc.timed_out_per_rpc", "count", "lower"),
		layer("obs.bytes_out_per_rpc", "bytes", "lower"),
	}
	// CPU share by package of the profile's leaf function, sim-* and
	// serve-inproc.
	for _, l := range cpuShareLayers {
		ms = append(ms, layer(l+".cpu_share", "fraction", "lower"))
	}
	for _, name := range []string{
		// Isolated rungs, ns per call: packet layers on sim-large-rpc,
		// per-RPC layers on sim-small-rpc, the admission ladder on
		// serve-inproc.
		"sim.step_ns", "wfq.enq_deq_ns", "transport.send_16k_ns",
		"workload.size_sample_ns", "stats.hist_record_ns", "stats.sample_add_ns",
		"clock.now_draw_ns", "core.admit_ns", "core.observe_ns", "core.admit_flight_ns",
		"flight.decision_ns", "quota.check_ns", "facade.admit_ns", "facade.observe_ns",
		"serve.middleware_bare_ns", "serve.middleware_hardened_ns", "serve.interceptor_ns",
		"serve.metrics_render_ns", "serve.snapshot_ns",
		// Span self times on serve-inproc.
		"serve.classify_ns", "serve.decide_ns", "serve.pre_handler_ns", "serve.finish_ns",
		"serve.span_total_ns",
	} {
		ms = append(ms, layer(name, "ns", "lower"))
	}
	ms = append(ms,
		// serve-loopback: client-side spans, server scrapes, and the
		// serving metrics too noisy or too coarse to gate.
		layer("loopback.rps_closed", "1/s", "higher"),
		layer("loopback.rate_at_limit_rps", "1/s", "higher"),
		layer("loopback.sched_wait_p99_us", "us", "lower"),
		layer("loopback.rtt_p50_us", "us", "lower"),
		layer("loopback.lat_p99_us", "us", "lower"),
		layer("loopback.lat_p999_us", "us", "lower"),
		layer("loopback.lat_p50_us_r4000", "us", "lower"),
		layer("loopback.lat_p50_us_r12000", "us", "lower"),
		layer("server.handler_p50_us", "us", "lower"),
		layer("loopback.http_overhead_p50_us", "us", "lower"),
		layer("loopback.client_cpu_us_per_req", "us", "lower"),
		layer("server.rss_mb", "MB", "lower"),
		// Traced-run cost against the untraced median, every workload.
		layer("trace.overhead_frac", "fraction", "lower"),
	)
	return ms
}()

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.Name)
	}
	return ns
}

func unitOf(name string) string {
	for _, ms := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// specJSON renders BENCHMARK.json. Per-layer metrics carry no bound.
func specJSON() []byte {
	type layerSpec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var layers []layerSpec
	for _, m := range perLayer {
		layers = append(layers, layerSpec{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	// A struct, not a map: the key order is the contract's.
	if err := enc.Encode(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []layerSpec    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	}); err != nil {
		panic(err) // only unencodable values fail, and there are none
	}
	return buf.Bytes()
}
