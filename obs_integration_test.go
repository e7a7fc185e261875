package aequitas

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"aequitas/internal/obs"
)

// obsTestConfig is a small overloaded Aequitas run that exercises every
// lifecycle stage (issues, admission decisions with p_admit < 1,
// downgrades, enqueues, hops, completions).
func obsTestConfig(seed int64) SimConfig {
	return SimConfig{
		System:   SystemAequitas,
		Hosts:    4,
		Seed:     seed,
		Duration: 5 * time.Millisecond,
		Warmup:   time.Millisecond,
		SLOs: []SLO{
			{Target: 15 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9},
			{Target: 25 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9},
		},
		Traffic: []HostTraffic{{
			AvgLoad:   0.9,
			BurstLoad: 1.4,
			Classes: []TrafficClass{
				{Priority: PC, Share: 0.6, FixedBytes: 8 << 10},
				{Priority: BE, Share: 0.4, FixedBytes: 32 << 10},
			},
		}},
	}
}

// TestObsEndToEnd runs one instrumented simulation and checks the
// acceptance criterion: the NDJSON stream is schema-valid and the metrics
// CSV carries queue, admission, transport and tail time series. The same
// run writes all four artifacts (trace, metrics, attribution CSV, flight
// dump); the report joined from them has every section and reads back
// through the report schema.
func TestObsEndToEnd(t *testing.T) {
	var ndjson, metrics, attr, flightDump bytes.Buffer
	cfg := obsTestConfig(11)
	cfg.Obs = ObsConfig{
		TraceNDJSON:    &ndjson,
		MetricsCSV:     &metrics,
		TailSeries:     true,
		AttributionCSV: &attr,
		FlightNDJSON:   &flightDump,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	rep, err := obs.BuildReport("e2e", bytes.NewReader(ndjson.Bytes()), bytes.NewReader(metrics.Bytes()),
		bytes.NewReader(attr.Bytes()), bytes.NewReader(flightDump.Bytes()))
	if err != nil {
		t.Fatalf("artifacts invalid: %v", err)
	}
	if rep.Trace == nil || rep.Metrics == nil || rep.Attribution == nil || rep.Flight == nil {
		t.Fatalf("report sections missing: trace %v metrics %v attribution %v flight %v",
			rep.Trace != nil, rep.Metrics != nil, rep.Attribution != nil, rep.Flight != nil)
	}
	if rep.Trace.Events == 0 || rep.Metrics.Rows == 0 || rep.Attribution.N == 0 || rep.Flight.Records == 0 {
		t.Fatalf("empty section: %d events, %d metrics rows, %d attributed RPCs, %d flight records",
			rep.Trace.Events, rep.Metrics.Rows, rep.Attribution.N, rep.Flight.Records)
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateReportJSON(&js); err != nil {
		t.Fatalf("report does not read back: %v", err)
	}

	// Every lifecycle stage except drop (load-dependent) must appear, and
	// per-RPC ordering must hold: issue first, complete last.
	kinds := map[string]int{}
	type bounds struct{ issue, admit, complete float64 }
	rpcs := map[uint64]*bounds{}
	for _, line := range strings.Split(strings.TrimSpace(ndjson.String()), "\n") {
		var e struct {
			TS   float64 `json:"ts_us"`
			Kind string  `json:"kind"`
			RPC  uint64  `json:"rpc"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		kinds[e.Kind]++
		b := rpcs[e.RPC]
		if b == nil {
			b = &bounds{issue: -1, admit: -1, complete: -1}
			rpcs[e.RPC] = b
		}
		switch e.Kind {
		case "issue":
			b.issue = e.TS
		case "admit":
			b.admit = e.TS
		case "complete":
			b.complete = e.TS
		}
	}
	for _, k := range []string{"issue", "admit", "enqueue", "hop", "complete"} {
		if kinds[k] == 0 {
			t.Errorf("no %q events (kinds: %v)", k, kinds)
		}
	}
	checked := 0
	for id, b := range rpcs {
		if b.complete < 0 {
			continue // still in flight at the horizon
		}
		if b.issue < 0 || b.admit < 0 {
			t.Fatalf("rpc %d completed without issue/admit", id)
		}
		if b.issue > b.admit || b.admit > b.complete {
			t.Fatalf("rpc %d lifecycle out of order: issue %.3f admit %.3f complete %.3f",
				id, b.issue, b.admit, b.complete)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no completed RPC lifecycles to check")
	}

	// The metrics CSV must expose all three subsystem families.
	header := strings.SplitN(metrics.String(), "\n", 2)[0]
	if !strings.HasPrefix(header, "t_s,") {
		t.Fatalf("metrics header = %q", header)
	}
	for _, fam := range []string{"q.", "drop.", "padmit.", "incwin_us.", "cwnd.", "srtt_us.", "tail."} {
		if !strings.Contains(header, ","+fam) {
			t.Errorf("metrics header missing %q columns: %q", fam, header)
		}
	}
	if rows := strings.Count(metrics.String(), "\n") - 1; rows < 10 {
		t.Errorf("metrics rows = %d, want >= 10", rows)
	}
}

// TestTraceHoldsEveryHop: a link records a hop when it settles its
// transmitter (netsim.Link), so the end of a run must settle every link
// before the trace is written. Settled after the write, the trace misses
// the hops of the last propagation delay on links nothing touched again,
// which the auditor, read later, still counts.
func TestTraceHoldsEveryHop(t *testing.T) {
	plan, err := FaultPreset("flapcrash", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var ndjson bytes.Buffer
	cfg := faultTestConfig(3, plan)
	cfg.Obs = ObsConfig{TraceNDJSON: &ndjson, Audit: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var audited int64
	for _, c := range res.Audit.Classes {
		audited += c.Hops
	}
	var hops int64
	for _, line := range strings.Split(strings.TrimSpace(ndjson.String()), "\n") {
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind == "hop" {
			hops++
		}
	}
	if hops != audited {
		t.Errorf("trace holds %d hops, the auditor counted %d", hops, audited)
	}
}

// TestObsDeterministicUnderParallel: per-config observability output is
// byte-identical when a sweep runs on one worker and on GOMAXPROCS
// workers.
func TestObsDeterministicUnderParallel(t *testing.T) {
	const n = 3
	sweep := func(workers int) ([]string, []string) {
		nd := make([]bytes.Buffer, n)
		ms := make([]bytes.Buffer, n)
		_, err := Sweep(n, func(i int) SimConfig {
			cfg := obsTestConfig(int64(21 + i))
			cfg.Obs = ObsConfig{TraceNDJSON: &nd[i], MetricsCSV: &ms[i]}
			return cfg
		}, ParallelOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		outN := make([]string, n)
		outM := make([]string, n)
		for i := range nd {
			outN[i] = nd[i].String()
			outM[i] = ms[i].String()
		}
		return outN, outM
	}
	serialN, serialM := sweep(1)
	parN, parM := sweep(runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		if serialN[i] != parN[i] {
			t.Errorf("config %d: NDJSON differs between 1 and %d workers", i, runtime.GOMAXPROCS(0))
		}
		if serialM[i] != parM[i] {
			t.Errorf("config %d: metrics CSV differs between 1 and %d workers", i, runtime.GOMAXPROCS(0))
		}
		if serialN[i] == "" || serialM[i] == "" {
			t.Errorf("config %d: empty observability output", i)
		}
	}
}

// TestTailSeries: with ObsConfig.TailSeries the metrics CSV carries
// windowed per-(dst,class) tail columns that pass the strict validator
// (family membership plus per-row quantile monotonicity), and enabling
// them does not perturb the built-in columns.
func TestTailSeries(t *testing.T) {
	var plain, tailed bytes.Buffer
	cfg := obsTestConfig(31)
	cfg.Obs = ObsConfig{MetricsCSV: &plain}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg = obsTestConfig(31)
	cfg.Obs = ObsConfig{MetricsCSV: &tailed, TailSeries: true}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	rep, err := obs.BuildReport("tail", nil, bytes.NewReader(tailed.Bytes()), nil, nil)
	if err != nil {
		t.Fatalf("tail metrics CSV invalid: %v", err)
	}
	if rows := rep.Metrics.Rows; rows < 10 {
		t.Errorf("metrics rows = %d, want >= 10", rows)
	}
	header := strings.SplitN(tailed.String(), "\n", 2)[0]
	for _, suffix := range []string{".n", ".p50_us", ".p90_us", ".p99_us", ".p999_us"} {
		if !strings.Contains(header, ",tail.d") || !strings.Contains(header, suffix) {
			t.Errorf("header missing tail %s columns: %q", suffix, header)
		}
	}

	// The tail sampler registers last, so every built-in column keeps its
	// position and values; the plain run's columns must be a prefix of the
	// tailed run's.
	plainHeader := strings.SplitN(plain.String(), "\n", 2)[0]
	if !strings.HasPrefix(header, plainHeader) {
		t.Errorf("tail columns reordered built-in columns:\nplain:  %q\ntailed: %q",
			plainHeader, header)
	}

	// Window counts across the whole run cover at least the completed RPCs
	// (tails observe from t=0, completions are window-gated, so >= holds).
	var sumN float64
	cols := strings.Split(header, ",")
	lines := strings.Split(strings.TrimSpace(tailed.String()), "\n")[1:]
	for _, line := range lines {
		fields := strings.Split(line, ",")
		for i, c := range cols {
			if strings.HasPrefix(c, "tail.") && strings.HasSuffix(c, ".n") && i < len(fields) && fields[i] != "" {
				var v float64
				if _, err := fmt.Sscanf(fields[i], "%g", &v); err == nil {
					sumN += v
				}
			}
		}
	}
	if sumN == 0 {
		t.Error("tail windows observed no completions")
	}
}

// TestTailSeriesDeterministicAcrossWorkers pins the acceptance criterion:
// the windowed-percentile CSV is byte-identical for a fixed SimConfig at
// 1, 4, and 8 sweep workers.
func TestTailSeriesDeterministicAcrossWorkers(t *testing.T) {
	const n = 3
	sweep := func(workers int) []string {
		ms := make([]bytes.Buffer, n)
		_, err := Sweep(n, func(i int) SimConfig {
			cfg := obsTestConfig(int64(41 + i))
			cfg.Obs = ObsConfig{MetricsCSV: &ms[i], TailSeries: true}
			return cfg
		}, ParallelOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, n)
		for i := range ms {
			out[i] = ms[i].String()
		}
		return out
	}
	base := sweep(1)
	for _, workers := range []int{4, 8} {
		got := sweep(workers)
		for i := 0; i < n; i++ {
			if got[i] != base[i] {
				t.Errorf("config %d: tail metrics CSV differs between 1 and %d workers", i, workers)
			}
			if base[i] == "" || !strings.Contains(base[i], "tail.d") {
				t.Errorf("config %d: no tail columns in output", i)
			}
		}
	}
}

// TestObsSchemaGolden pins the NDJSON schema as the trace reader holds
// it: an event carrying ts_us/kind/rpc plus exactly its kind's golden
// fields reads, and dropping any one of them is refused naming it.
// Extending the schema is fine (update the golden); renaming or dropping
// fields breaks downstream consumers and must be deliberate.
func TestObsSchemaGolden(t *testing.T) {
	golden := map[string][]string{
		"issue":    {"src", "dst", "prio", "class", "bytes"},
		"admit":    {"src", "dst", "class", "decision", "p_admit"},
		"enqueue":  {"src", "dst", "class", "bytes"},
		"hop":      {"link", "class", "bytes", "resid_us", "qbytes"},
		"drop":     {"link", "class", "bytes"},
		"complete": {"src", "dst", "class", "bytes", "rnl_us"},
		"fault":    {"event", "target", "rate"},
	}
	value := map[string]string{"link": `"up-0"`, "target": `"up-0"`, "decision": `"admit"`, "event": `"linkdown"`}
	line := func(kind string, fields []string, skip int) string {
		s := `{"ts_us":1,"kind":"` + kind + `","rpc":1`
		for i, f := range fields {
			v, ok := value[f]
			if !ok {
				v = "1"
			}
			if i != skip {
				s += `,"` + f + `":` + v
			}
		}
		return s + "}"
	}
	for kind, want := range golden {
		if _, err := obs.BuildReport("golden", strings.NewReader(line(kind, want, -1)), nil, nil, nil); err != nil {
			t.Errorf("%s event with the golden fields refused: %v", kind, err)
		}
		for i, f := range want {
			_, err := obs.BuildReport("golden", strings.NewReader(line(kind, want, i)), nil, nil, nil)
			if err == nil || !strings.Contains(err.Error(), `"`+f+`"`) {
				t.Errorf("%s event without %q: error %v, want one naming the field", kind, f, err)
			}
		}
	}
	if _, err := obs.BuildReport("golden", strings.NewReader(`{"ts_us":1,"kind":"nope","rpc":1}`), nil, nil, nil); err == nil {
		t.Error("unknown kind read")
	}
}

// observedFaultedConfig is the benchmark's sim-observed-faulted workload
// at test scale: leaf-spine, production sizes, a link flap, time-outs and
// retries, and its sinks: metrics with tail series, attribution CSV and
// audit on, the NDJSON trace off.
func observedFaultedConfig(attr, metrics io.Writer) (SimConfig, error) {
	cfg := SimConfig{
		System: SystemAequitas, Hosts: 8, Seed: 3, Duration: 3 * time.Millisecond,
		QoSWeights: []float64{8, 4, 1},
		Leaves:     2, Spines: 2, SpineLinkRate: 200e9,
		SLOs: []SLO{
			{Target: 20 * time.Microsecond, Percentile: 99.9},
			{Target: 40 * time.Microsecond, Percentile: 99.9},
		},
		Traffic: []HostTraffic{{AvgLoad: 0.8, BurstLoad: 1.4, Classes: []TrafficClass{
			{Priority: PC, Share: 0.5, Size: ProductionPCSizes()},
			{Priority: NC, Share: 0.3, Size: ProductionNCSizes()},
			{Priority: BE, Share: 0.2, Size: ProductionBESizes()},
		}}},
		Retry: RetryParams{Timeout: 300 * time.Microsecond, MaxRetries: 3},
		Obs:   ObsConfig{MetricsCSV: metrics, TailSeries: true, AttributionCSV: attr, Audit: true},
	}
	plan, err := FaultPreset("flap", cfg.Duration)
	cfg.Faults = plan
	return cfg, err
}

// TestObservedFaultedSinks: with the NDJSON trace off, the tracer feeds
// the attributor, the auditor and the tail series but records no event,
// and the attribution CSV is the one the separate attributor, auditor and
// tail tracker wrote before the tracer fed them (its SHA-256 is pinned).
func TestObservedFaultedSinks(t *testing.T) {
	var attr, metrics bytes.Buffer
	cfg, err := observedFaultedConfig(&attr, &metrics)
	if err != nil {
		t.Fatal(err)
	}
	st, err := simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.tracer == nil || st.tracer.Len() != 0 {
		t.Errorf("tracer %p holds %d events, want a tracer holding none", st.tracer, st.tracer.Len())
	}
	if !strings.Contains(metrics.String(), ".p999_us") {
		t.Error("metrics CSV has no tail columns")
	}
	const want = "d3131b583585a784a4adcbc12b97b34e44ff5eb5e897086d60a80b45af5893fa"
	if got := fmt.Sprintf("%x", sha256.Sum256(attr.Bytes())); got != want {
		t.Errorf("attribution CSV (%d bytes) has SHA-256 %s, want %s", attr.Len(), got, want)
	}
}
