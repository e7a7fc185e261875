package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reportTrace builds a tiny but schema-shaped NDJSON trace: n issued
// RPCs, each admitted and completed with a class-dependent RNL.
func reportTrace(n int) string {
	var b strings.Builder
	ts := 0.0
	for i := 0; i < n; i++ {
		class := i % 2
		rnl := 10.0 + float64(i)
		if class == 1 {
			rnl *= 20
		}
		fmt.Fprintf(&b, `{"ts_us":%.1f,"kind":"issue","rpc":%d,"src":0,"dst":1,"prio":0,"class":%d,"bytes":4096}`+"\n", ts, i, class)
		ts += 0.5
		fmt.Fprintf(&b, `{"ts_us":%.1f,"kind":"admit","rpc":%d,"src":0,"dst":1,"class":%d,"decision":"admit","p_admit":1}`+"\n", ts, i, class)
		ts += rnl
		fmt.Fprintf(&b, `{"ts_us":%.1f,"kind":"complete","rpc":%d,"src":0,"dst":1,"class":%d,"bytes":4096,"rnl_us":%.1f}`+"\n", ts, i, class, rnl)
	}
	return b.String()
}

const reportMetricsCSV = "t_s,q.sw0.q0,tail.d1.q0.p50_us,tail.d1.q0.p99_us\n" +
	"0.000100000,2,15,30\n" +
	"0.000200000,3,,\n" +
	"0.000300000,1,12,40\n"

const reportAttrCSV = "rpc,src,dst,class,issue_s,admit_us,sender_us,transport_us,pacing_us,nic_us,switch_us,wire_us,rnl_us\n" +
	"1,0,1,0,0.001,1,2,3,0,0.5,1.5,2,10\n" +
	"2,0,1,0,0.002,2,3,4,0,0.5,2.5,2,14\n" +
	"3,0,1,1,0.003,0,1,9,1,0.5,6.5,2,20\n"

const reportFlightNDJSON = `{"schema":"aequitas.flight/v1","trigger":"manual","detail":"unit","label":"unit","ts_us":100.000,"records":2,"offered":3,"sampled_out":1,"dropped_frozen":0}
{"seq":0,"ts_us":1.000,"kind":"decision","verdict":"admit","src":0,"peer":1,"req":0,"class":0,"p_admit":0.9,"size_mtus":1}
{"seq":1,"ts_us":2.000,"kind":"complete","verdict":"slo_miss","src":0,"peer":1,"req":0,"class":0,"p_admit":0.8,"size_mtus":1,"lat_us":42.5}
`

// TestBuildReportEndToEnd: all four sections populated, internally
// consistent, and round-trippable through JSON + the validator, with a
// renderable markdown form.
func TestBuildReportEndToEnd(t *testing.T) {
	rep, err := BuildReport("unit",
		strings.NewReader(reportTrace(40)),
		strings.NewReader(reportMetricsCSV),
		strings.NewReader(reportAttrCSV),
		strings.NewReader(reportFlightNDJSON))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || rep.Metrics == nil || rep.Attribution == nil || rep.Flight == nil {
		t.Fatal("missing sections")
	}
	if rep.Flight.Records != 2 || rep.Flight.ByVerdict["slo_miss"] != 1 || rep.Flight.MinPAdmit != 0.8 {
		t.Errorf("flight summary = %+v", rep.Flight)
	}
	if rep.Trace.Events != 120 || rep.Trace.Kinds["complete"] != 40 {
		t.Errorf("trace events/completes = %d/%d", rep.Trace.Events, rep.Trace.Kinds["complete"])
	}
	if rep.Trace.RNL.N != 40 || len(rep.Trace.RNLByClass) != 2 {
		t.Errorf("rnl n = %d, classes = %d", rep.Trace.RNL.N, len(rep.Trace.RNLByClass))
	}
	if q0, q1 := rep.Trace.RNLByClass["q0"], rep.Trace.RNLByClass["q1"]; q0.MeanUS >= q1.MeanUS {
		t.Errorf("class means not separated: q0 %v, q1 %v", q0.MeanUS, q1.MeanUS)
	}
	if rep.Metrics.Rows != 3 || rep.Metrics.Columns != 3 {
		t.Errorf("metrics shape = %dx%d", rep.Metrics.Rows, rep.Metrics.Columns)
	}
	if rep.Metrics.Families["tail"] != 2 || rep.Metrics.Families["q"] != 1 {
		t.Errorf("families = %v", rep.Metrics.Families)
	}
	var tailSeries *SeriesSummary
	for i := range rep.Metrics.Series {
		if rep.Metrics.Series[i].Name == "tail.d1.q0.p50_us" {
			tailSeries = &rep.Metrics.Series[i]
		}
	}
	if tailSeries == nil || tailSeries.N != 2 || tailSeries.Last != 12 || tailSeries.Max != 15 {
		t.Errorf("tail series summary = %+v", tailSeries)
	}
	if rep.Attribution.N != 3 || len(rep.Attribution.Classes) != 2 {
		t.Errorf("attribution = %+v", rep.Attribution)
	}
	if m := rep.Attribution.Classes[0].MeanUS["admit_us"]; m != 1.5 {
		t.Errorf("q0 mean admit = %v, want 1.5", m)
	}

	var js strings.Builder
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	back, err := ValidateReportJSON(strings.NewReader(js.String()))
	if err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
	if back.Trace.Events != rep.Trace.Events {
		t.Error("JSON round trip lost data")
	}

	var md strings.Builder
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Run report: unit", "## Lifecycle trace", "## Metrics time series", "## Latency attribution", "## Flight recorder", "| slo_miss | 1 |", "| q1 |"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

// TestReportEmptyDistribution: a valid trace with no completion (a run
// shorter than one RPC) summarises its RNL as {n: 0} with zero
// quantiles, and its report writes and reads back. An empty histogram
// used to summarise to a NaN mean the JSON encoder refuses.
func TestReportEmptyDistribution(t *testing.T) {
	trace := `{"ts_us":0.000,"kind":"issue","rpc":1,"src":0,"dst":1,"prio":0,"class":0,"bytes":4096}
{"ts_us":0.500,"kind":"admit","rpc":1,"src":0,"dst":1,"class":0,"decision":"admit","p_admit":1}
`
	rep, err := BuildReport("short", strings.NewReader(trace), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.RNL != (QuantilesUS{}) || rep.Trace.RNLByClass != nil {
		t.Errorf("empty RNL summary = %+v, by class %v", rep.Trace.RNL, rep.Trace.RNLByClass)
	}
	var js strings.Builder
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatalf("report of a trace without completions not writable: %v", err)
	}
	if _, err := ValidateReportJSON(strings.NewReader(js.String())); err != nil {
		t.Fatalf("written report invalid: %v\n%s", err, js.String())
	}
}

// TestBuildReportErrorsNamePath: a malformed artifact read from a file
// fails with the file's path, the physical line and the field; a reader
// without a name gets the artifact's kind instead, once.
func TestBuildReportErrorsNamePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(path, []byte(reportTrace(1)+`{"ts_us":99,"kind":"drop","rpc":9,"class":0,"bytes":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = BuildReport("", f, nil, nil, nil)
	if want := path + `: line 4: field "link"`; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %v, want prefix %q", err, want)
	}
	bad := strings.Replace(reportFlightNDJSON, `"p_admit":0.8`, `"p_admit":8`, 1)
	_, err = BuildReport("", nil, nil, nil, strings.NewReader(bad))
	if want := `flight: line 3: field "p_admit"`; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %v, want prefix %q", err, want)
	}
}

// TestAttrRejectsNonFinite: the attribution reader refuses a NaN or
// infinite component, naming the line and the column, like the metrics
// reader does; before, the report built and then failed to encode.
func TestAttrRejectsNonFinite(t *testing.T) {
	for _, cell := range []string{"NaN", "Inf", "-Inf", "x"} {
		in := strings.Replace(reportAttrCSV, "0.002,2,3,4,", "0.002,2,"+cell+",4,", 1)
		_, err := BuildReport("", nil, nil, strings.NewReader(in), nil)
		if want := `attribution: line 3: column "sender_us"`; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %v, want prefix %q", cell, err, want)
		}
	}
}

// TestValidateReportJSONRejects: schema tag, kind-sum, quantile
// monotonicity, and series-consistency defects are all caught.
func TestValidateReportJSONRejects(t *testing.T) {
	cases := map[string]string{
		"wrong schema": `{"schema":"nope/v1","trace":{"events":0,"kinds":{},"end_us":0,"rnl_us":{"n":0}}}`,
		"no sections":  `{"schema":"aequitas.obsreport/v1"}`,
		"kind sum":     `{"schema":"aequitas.obsreport/v1","trace":{"events":5,"kinds":{"issue":1},"end_us":1,"rnl_us":{"n":0}}}`,
		"quantiles": `{"schema":"aequitas.obsreport/v1","trace":{"events":1,"kinds":{"complete":1},"end_us":1,` +
			`"rnl_us":{"n":1,"mean_us":5,"p50_us":9,"p90_us":5,"p99_us":9,"p999_us":9,"max_us":9}}}`,
		"series": `{"schema":"aequitas.obsreport/v1","metrics":{"rows":1,"columns":1,"start_s":0,"end_s":1,` +
			`"series":[{"name":"x","n":1,"mean":9,"min":1,"max":2,"last":1}]}}`,
		"attr sum": `{"schema":"aequitas.obsreport/v1","attribution":{"n":5,"classes":[{"class":"q0","n":2,"mean_us":{}}]}}`,
		"flight sum": `{"schema":"aequitas.obsreport/v1","flight":{"schema":"aequitas.flight/v1",` +
			`"dumps":[{"trigger":"final","ts_us":1,"records":2}],"records":5,"by_verdict":{},"min_p_admit":1,"max_lat_us":0}}`,
		"flight p": `{"schema":"aequitas.obsreport/v1","flight":{"schema":"aequitas.flight/v1",` +
			`"dumps":[],"records":0,"by_verdict":{},"min_p_admit":1.5,"max_lat_us":0}}`,
	}
	for name, doc := range cases {
		if _, err := ValidateReportJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzBuildReport: whatever the four readers accept must make a report
// that writes as JSON and reads back through ValidateReportJSON. Each
// input is one artifact; an empty one is absent. Seeds include the three
// inputs that broke this before the readers were merged: a trace without
// completions, a metrics cell that is infinite, a NaN attribution cell.
func FuzzBuildReport(f *testing.F) {
	f.Add([]byte(reportTrace(3)), []byte(reportMetricsCSV), []byte(reportAttrCSV), []byte(reportFlightNDJSON))
	f.Add([]byte(`{"ts_us":0,"kind":"issue","rpc":1,"src":0,"dst":1,"prio":0,"class":0,"bytes":1}`), []byte{}, []byte{}, []byte{})
	f.Add([]byte{}, []byte("t_s,q.a\n1,Inf\n"), []byte{}, []byte{})
	f.Add([]byte{}, []byte{}, []byte(strings.Replace(reportAttrCSV, ",2,3,4,", ",2,NaN,4,", 1)), []byte{})
	f.Add([]byte{}, []byte{}, []byte{}, []byte(strings.Replace(reportFlightNDJSON, `"sampled_out":1`, `"sampled_out":-10`, 1)))
	f.Fuzz(func(t *testing.T, trace, metrics, attr, flightDump []byte) {
		reader := func(b []byte) io.Reader {
			if len(b) == 0 {
				return nil
			}
			return bytes.NewReader(b)
		}
		if len(trace)+len(metrics)+len(attr)+len(flightDump) == 0 {
			return
		}
		rep, err := BuildReport("fuzz", reader(trace), reader(metrics), reader(attr), reader(flightDump))
		if err != nil {
			return
		}
		var js bytes.Buffer
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatalf("accepted artifacts make an unwritable report: %v", err)
		}
		if _, err := ValidateReportJSON(&js); err != nil {
			t.Fatalf("accepted artifacts make an invalid report: %v\n%s", err, js.String())
		}
	})
}
