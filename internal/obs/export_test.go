package obs

import (
	"encoding/json"
	"io"
	"math/rand"
	"strings"
	"testing"

	"aequitas/internal/stats"
)

// exportTestSnapshot builds a representative snapshot: counters, dotted
// gauges, and two histogram series of one metric.
func exportTestSnapshot() *Snapshot {
	rng := rand.New(rand.NewSource(5))
	mk := func(scale float64) *stats.Hist {
		h := stats.NewHist()
		for i := 0; i < 5000; i++ {
			h.Record(scale * (1 + rng.Float64()*100))
		}
		return h
	}
	return &Snapshot{
		Schema:   SnapshotSchema,
		Label:    "test",
		SimTimeS: 0.0125,
		Counters: []NamedValue{
			{Name: "rpcs_issued_total", Value: 1200},
			{Name: "rpcs_completed_total", Value: 1100},
		},
		Gauges: []NamedValue{
			{Name: "q.sw0.q0", Value: 3},
			{Name: "padmit.h1.d2.q0", Value: 0.75},
			{Name: "goodput.fraction", Value: 0.93},
		},
		Hists: []HistSnapshot{
			SnapHist("rnl_us", "class", "QoS0", mk(1)),
			SnapHist("rnl_us", "class", "QoS1", mk(40)),
		},
	}
}

// TestWritePromValidates: the renderer's output passes the strict
// text-format validator and contains the expected series.
func TestWritePromValidates(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, exportTestSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	n, err := ValidatePromText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("rendered text invalid: %v\n%s", err, out)
	}
	if n < 10 {
		t.Errorf("only %d samples rendered", n)
	}
	for _, want := range []string{
		"aequitas_rpcs_issued_total 1200",
		`aequitas_gauge{name="q.sw0.q0"} 3`,
		`aequitas_rnl_us_bucket{class="QoS0",le="+Inf"} 5000`,
		`aequitas_rnl_us_count{class="QoS1"} 5000`,
		"# TYPE aequitas_rnl_us histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// One TYPE line per metric even with two labelled series.
	if got := strings.Count(out, "# TYPE aequitas_rnl_us histogram"); got != 1 {
		t.Errorf("%d TYPE lines for the histogram, want 1", got)
	}
}

// TestSnapHistCumulative: bucket counts are cumulative and bounded by
// Count, with finite uppers even when observations hit the overflow
// bucket.
func TestSnapHistCumulative(t *testing.T) {
	h := stats.NewHist()
	h.Record(5)
	h.Record(50)
	h.Record(1e18) // overflow bucket
	hs := SnapHist("x_us", "", "", h)
	if hs.Count != 3 || hs.Sum != h.Sum() {
		t.Fatalf("count/sum = %d/%v", hs.Count, hs.Sum)
	}
	last := int64(0)
	for _, b := range hs.Buckets {
		if b.Count < last {
			t.Fatalf("bucket counts not cumulative: %v", hs.Buckets)
		}
		last = b.Count
	}
	if last != 3 {
		t.Errorf("final cumulative count %d != 3", last)
	}
	for _, b := range hs.Buckets {
		if b.Upper > 1e18 {
			t.Errorf("non-finite-clamped upper %v", b.Upper)
		}
	}
	// JSON round-trip must survive (no +Inf in the document).
	data, err := json.Marshal(hs)
	if err != nil {
		t.Fatalf("snapshot not JSON-safe: %v", err)
	}
	var back HistSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
}

// TestValidatePromTextRejects: structural defects are caught.
func TestValidatePromTextRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":        "aequitas_x 1\n",
		"bad name":       "# TYPE 9bad counter\n9bad 1\n",
		"bad value":      "# TYPE aequitas_x counter\naequitas_x one\n",
		"no +Inf bucket": "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 3\nh_count 2\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 4\n",
		"repeated gauge": "# TYPE g gauge\ng{name=\"padmit.p.q0\",x=\"1\"} 0.99\ng{x=\"1\",name=\"padmit.p.q0\"} 0.97\n",
		"repeated le":    "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
	}
	for name, text := range cases {
		if _, err := ValidatePromText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, text)
		}
	}
	ok := "# TYPE aequitas_x counter\naequitas_x 1\n" +
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 9.5\nh_count 5\n"
	if n, err := ValidatePromText(strings.NewReader(ok)); err != nil || n != 5 {
		t.Errorf("valid text rejected: n=%d err=%v", n, err)
	}
}

// TestPromLabelValues: label values are escaped the exposition format's
// way (\\, \" and \n; everything else raw, non-UTF-8 as U+FFFD), not Go's,
// and the validator tells the two apart.
func TestPromLabelValues(t *testing.T) {
	names := []string{"tab\there", "nul\x00byte", "bad\xffutf8", `quo"te`, `back\slash`, "line\nfeed", "brace}comma, space", "zero\u200bwidth"}
	s := &Snapshot{Hists: []HistSnapshot{SnapHist("x_us", "class", "a\"}\xfe", stats.NewHist())}}
	for i, n := range names {
		s.Gauges = append(s.Gauges, NamedValue{Name: n, Value: float64(i)})
	}
	var b strings.Builder
	if err := WriteProm(&b, s); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n, err := ValidatePromText(strings.NewReader(out)); err != nil || n != 1+len(names)+3 {
		t.Fatalf("%d samples, %v:\n%s", n, err, out)
	}
	for _, want := range []string{
		"{name=\"tab\there\"} 0\n", "{name=\"nul\x00byte\"} 1\n", "{name=\"bad\uFFFDutf8\"} 2\n",
		`{name="quo\"te"} 3`, `{name="back\\slash"} 4`, `{name="line\nfeed"} 5`,
		`{name="brace}comma, space"} 6`, "{name=\"zero\u200bwidth\"} 7\n",
		`x_us_count{class="a\"}` + "\uFFFD" + `"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for name, line := range map[string]string{
		"Go tab escape":     `g{name="a\tb"} 1`,
		"Go hex escape":     `g{name="a\x00b"} 1`,
		"Go unicode escape": `g{name="a\u200bb"} 1`,
		"trailing escape":   `g{name="a\`,
		"not UTF-8":         "g{name=\"a\xffb\"} 1",
		"unquoted value":    `g{name=a} 1`,
		"unterminated":      `g{name="a} 1`,
	} {
		if _, err := ValidatePromText(strings.NewReader("# TYPE g gauge\n" + line + "\n")); err == nil {
			t.Errorf("%s: accepted %q", name, line)
		}
	}
}

// BenchmarkMetricsRender is the tracked /metrics render cost: one full
// Prometheus text exposition of a representative snapshot.
func BenchmarkMetricsRender(b *testing.B) {
	s := exportTestSnapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteProm(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}
