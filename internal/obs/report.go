package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"aequitas/internal/obs/flight"
	"aequitas/internal/stats"
)

// ReportSchema versions the obsreport JSON document.
const ReportSchema = "aequitas.obsreport/v1"

// Report joins one run's observability artifacts — NDJSON lifecycle
// trace, wide-format metrics CSV, per-RPC attribution CSV, and
// flight-recorder dump stream — into a single summarised document.
// Sections are nil when the corresponding artifact was not provided.
// cmd/obsreport builds and renders these.
type Report struct {
	Schema      string          `json:"schema"`
	Label       string          `json:"label,omitempty"`
	Trace       *TraceSummary   `json:"trace,omitempty"`
	Metrics     *MetricsSummary `json:"metrics,omitempty"`
	Attribution *AttrSummary    `json:"attribution,omitempty"`
	Flight      *flight.Summary `json:"flight,omitempty"`
}

// QuantilesUS summarises a latency distribution in microseconds. N, Mean
// and Max are exact; the producer states how the quantiles were
// estimated (quantilesFromHist: the log-linear histogram, ≤1% relative
// error).
type QuantilesUS struct {
	N      int64   `json:"n"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MaxUS  float64 `json:"max_us"`
}

func quantilesFromHist(h *stats.Hist) QuantilesUS {
	if h.N() == 0 {
		return QuantilesUS{} // no mean or quantiles: {n: 0}, never NaN
	}
	return QuantilesUS{
		N:      h.N(),
		MeanUS: h.Mean(),
		P50US:  h.Quantile(0.50),
		P90US:  h.Quantile(0.90),
		P99US:  h.Quantile(0.99),
		P999US: h.Quantile(0.999),
		MaxUS:  h.Max(),
	}
}

// ok reports whether the quantile summary is internally consistent.
func (q *QuantilesUS) ok() bool {
	if q.N == 0 {
		return true
	}
	return q.N > 0 && q.P50US <= q.P90US && q.P90US <= q.P99US &&
		q.P99US <= q.P999US && q.P999US <= q.MaxUS
}

// TraceSummary condenses an NDJSON lifecycle trace: event counts by
// kind, the trace horizon, and completed-RPC RNL distributions overall
// and per run-class.
type TraceSummary struct {
	Events     int64                  `json:"events"`
	Kinds      map[string]int64       `json:"kinds"`
	EndUS      float64                `json:"end_us"`
	RNL        QuantilesUS            `json:"rnl_us"`
	RNLByClass map[string]QuantilesUS `json:"rnl_us_by_class,omitempty"`
}

// MetricsSummary condenses a metrics CSV: shape, per-family column
// counts, and a per-column series summary.
type MetricsSummary struct {
	Rows     int             `json:"rows"`
	Columns  int             `json:"columns"`
	StartS   float64         `json:"start_s"`
	EndS     float64         `json:"end_s"`
	Families map[string]int  `json:"family_columns,omitempty"`
	Series   []SeriesSummary `json:"series,omitempty"`
}

// SeriesSummary is one metric column over the run: sampled cells, mean,
// extremes, and the final sample.
type SeriesSummary struct {
	Name string  `json:"name"`
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Last float64 `json:"last"`
}

// AttrSummary condenses a per-RPC attribution CSV into per-class mean
// component breakdowns.
type AttrSummary struct {
	N       int64              `json:"n"`
	Classes []AttrClassSummary `json:"classes"`
}

// AttrClassSummary is one run-class's mean latency decomposition.
type AttrClassSummary struct {
	Class  string             `json:"class"`
	N      int64              `json:"n"`
	MeanUS map[string]float64 `json:"mean_us"`
}

// BuildReport assembles a report from whichever artifact readers are
// non-nil. Each artifact is read once, by its format's one reader, which
// checks every line against the format's schema as it summarises it. The
// first malformed line fails the build with an error that names the
// artifact (its file name when the reader has a Name method, as an
// *os.File does), the physical line and the field.
func BuildReport(label string, trace, metrics, attr, flightDump io.Reader) (*Report, error) {
	rep := &Report{Schema: ReportSchema, Label: label}
	var err error
	if trace != nil {
		if rep.Trace, err = summarizeTrace(trace); err != nil {
			return nil, artifactErr(trace, "trace", err)
		}
	}
	if metrics != nil {
		if rep.Metrics, err = summarizeMetrics(metrics); err != nil {
			return nil, artifactErr(metrics, "metrics", err)
		}
	}
	if attr != nil {
		if rep.Attribution, err = summarizeAttr(attr); err != nil {
			return nil, artifactErr(attr, "attribution", err)
		}
	}
	if flightDump != nil {
		if rep.Flight, err = flight.Summarize(flightDump); err != nil {
			return nil, artifactErr(flightDump, "flight", err)
		}
	}
	return rep, nil
}

// artifactErr prefixes a reader's error with the artifact's file name, or
// with its kind when the reader has no name.
func artifactErr(r io.Reader, kind string, err error) error {
	if f, ok := r.(interface{ Name() string }); ok {
		kind = f.Name()
	}
	return fmt.Errorf("%s: %w", kind, err)
}

// attrComponents are the attribution CSV's per-RPC latency components,
// in schema order (see AttrCSVHeader).
var attrComponents = []string{"admit_us", "sender_us", "transport_us", "pacing_us", "nic_us", "switch_us", "wire_us", "rnl_us"}

// summarizeAttr is the one reader of the per-RPC attribution CSV: the
// header must name the class and every component column, and every
// component cell must be a finite float.
func summarizeAttr(r io.Reader) (*AttrSummary, error) {
	type acc struct {
		n    int64
		sums map[string]float64
	}
	byClass := make(map[string]*acc)
	as := &AttrSummary{}
	col := make(map[string]int)
	err := readCSV(r, func(names []string) error {
		for i, name := range names {
			col[name] = i
		}
		for _, need := range append([]string{"class"}, attrComponents...) {
			if _, ok := col[need]; !ok {
				return fmt.Errorf("header missing column %q", need)
			}
		}
		return nil
	}, func(line int, fields []string) error {
		key := "q" + fields[col["class"]]
		a, ok := byClass[key]
		if !ok {
			a = &acc{sums: make(map[string]float64)}
			byClass[key] = a
		}
		a.n++
		as.N++
		for _, comp := range attrComponents {
			v, ok := parseFinite(fields[col[comp]])
			if !ok {
				return fmt.Errorf("line %d: column %q: not a finite float: %q", line, comp, fields[col[comp]])
			}
			a.sums[comp] += v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, k := range sortedKeys(byClass) {
		a := byClass[k]
		means := make(map[string]float64, len(attrComponents))
		for _, comp := range attrComponents {
			if means[comp] = a.sums[comp] / float64(a.n); math.IsInf(means[comp], 0) {
				return nil, fmt.Errorf("column %q: sum overflows", comp)
			}
		}
		as.Classes = append(as.Classes, AttrClassSummary{Class: k, N: a.n, MeanUS: means})
	}
	return as, nil
}

// WriteJSON writes the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteMarkdown renders the report as a human-readable markdown
// document.
func (rep *Report) WriteMarkdown(w io.Writer) error {
	bw := bufio.NewWriter(w)
	title := rep.Label
	if title == "" {
		title = "run"
	}
	fmt.Fprintf(bw, "# Run report: %s\n", title)
	if t := rep.Trace; t != nil {
		fmt.Fprintf(bw, "\n## Lifecycle trace\n\n")
		fmt.Fprintf(bw, "%d events over %.3f ms simulated.\n\n", t.Events, t.EndUS/1e3)
		fmt.Fprintf(bw, "| kind | events |\n|---|---:|\n")
		for _, k := range sortedKeys(t.Kinds) {
			fmt.Fprintf(bw, "| %s | %d |\n", k, t.Kinds[k])
		}
		fmt.Fprintf(bw, "\n### RNL (us)\n\n")
		fmt.Fprintf(bw, "| class | n | mean | p50 | p90 | p99 | p99.9 | max |\n|---|---:|---:|---:|---:|---:|---:|---:|\n")
		writeQuantRow(bw, "all", t.RNL)
		for _, k := range sortedKeys(t.RNLByClass) {
			writeQuantRow(bw, k, t.RNLByClass[k])
		}
	}
	if m := rep.Metrics; m != nil {
		fmt.Fprintf(bw, "\n## Metrics time series\n\n")
		fmt.Fprintf(bw, "%d rows x %d columns, t = %.6f..%.6f s.\n\n", m.Rows, m.Columns, m.StartS, m.EndS)
		if len(m.Families) > 0 {
			fmt.Fprintf(bw, "| family | columns |\n|---|---:|\n")
			for _, k := range sortedKeys(m.Families) {
				fmt.Fprintf(bw, "| %s | %d |\n", k, m.Families[k])
			}
		}
	}
	if f := rep.Flight; f != nil {
		fmt.Fprintf(bw, "\n## Flight recorder\n\n")
		fmt.Fprintf(bw, "%d dumps, %d records (%d admits sampled out); min p_admit %.3g, max observed latency %.2f us.\n\n",
			len(f.Dumps), f.Records, f.SampledOut, f.MinPAdmit, f.MaxLatUS)
		fmt.Fprintf(bw, "| trigger | detail | t (us) | records |\n|---|---|---:|---:|\n")
		for _, d := range f.Dumps {
			fmt.Fprintf(bw, "| %s | %s | %.1f | %d |\n", d.Trigger, d.Detail, d.TSUS, d.Records)
		}
		if len(f.ByVerdict) > 0 {
			fmt.Fprintf(bw, "\n| verdict | records |\n|---|---:|\n")
			for _, k := range sortedKeys(f.ByVerdict) {
				fmt.Fprintf(bw, "| %s | %d |\n", k, f.ByVerdict[k])
			}
		}
	}
	if a := rep.Attribution; a != nil {
		fmt.Fprintf(bw, "\n## Latency attribution (mean us per RPC)\n\n")
		fmt.Fprintf(bw, "%d attributed RPCs.\n\n", a.N)
		fmt.Fprintf(bw, "| class | n |")
		for _, comp := range attrComponents {
			fmt.Fprintf(bw, " %s |", strings.TrimSuffix(comp, "_us"))
		}
		fmt.Fprintf(bw, "\n|---|---:|")
		for range attrComponents {
			fmt.Fprintf(bw, "---:|")
		}
		fmt.Fprintf(bw, "\n")
		for _, c := range a.Classes {
			fmt.Fprintf(bw, "| %s | %d |", c.Class, c.N)
			for _, comp := range attrComponents {
				fmt.Fprintf(bw, " %.2f |", c.MeanUS[comp])
			}
			fmt.Fprintf(bw, "\n")
		}
	}
	return bw.Flush()
}

func writeQuantRow(w io.Writer, name string, q QuantilesUS) {
	fmt.Fprintf(w, "| %s | %d | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f |\n",
		name, q.N, q.MeanUS, q.P50US, q.P90US, q.P99US, q.P999US, q.MaxUS)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ValidateReportJSON checks an obsreport JSON document: schema tag,
// at least one section, and internal consistency (quantile ordering,
// series min ≤ mean ≤ max, non-negative counts). Returns the parsed
// report. It is the report schema's one checker: the report tests and
// FuzzBuildReport read every written report back through it.
func ValidateReportJSON(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("obs: report: %v", err)
	}
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("obs: report: schema %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.Trace == nil && rep.Metrics == nil && rep.Attribution == nil && rep.Flight == nil {
		return nil, fmt.Errorf("obs: report: no sections")
	}
	if t := rep.Trace; t != nil {
		if t.Events < 0 {
			return nil, fmt.Errorf("obs: report: trace.events negative")
		}
		var kindSum int64
		for k, n := range t.Kinds {
			if n < 0 {
				return nil, fmt.Errorf("obs: report: trace.kinds[%s] negative", k)
			}
			kindSum += n
		}
		if kindSum != t.Events {
			return nil, fmt.Errorf("obs: report: trace kinds sum %d != events %d", kindSum, t.Events)
		}
		if !t.RNL.ok() {
			return nil, fmt.Errorf("obs: report: trace.rnl_us quantiles not monotone")
		}
		for k, q := range t.RNLByClass {
			if !q.ok() {
				return nil, fmt.Errorf("obs: report: trace.rnl_us_by_class[%s] quantiles not monotone", k)
			}
		}
	}
	if m := rep.Metrics; m != nil {
		if m.Rows < 0 || m.Columns < 0 {
			return nil, fmt.Errorf("obs: report: metrics shape negative")
		}
		if m.EndS < m.StartS {
			return nil, fmt.Errorf("obs: report: metrics end %g before start %g", m.EndS, m.StartS)
		}
		for _, s := range m.Series {
			if s.N <= 0 {
				return nil, fmt.Errorf("obs: report: series %q has no samples", s.Name)
			}
			// The mean is a float accumulation (sum/n), so allow it to
			// overshoot the range by a few ulps.
			slack := 1e-9 * math.Max(math.Abs(s.Min), math.Abs(s.Max))
			if s.Min > s.Max || s.Mean < s.Min-slack || s.Mean > s.Max+slack {
				return nil, fmt.Errorf("obs: report: series %q min/mean/max inconsistent (%g/%g/%g)",
					s.Name, s.Min, s.Mean, s.Max)
			}
		}
	}
	if a := rep.Attribution; a != nil {
		var n int64
		for _, c := range a.Classes {
			if c.N < 0 {
				return nil, fmt.Errorf("obs: report: attribution class %s count negative", c.Class)
			}
			n += c.N
		}
		if n != a.N {
			return nil, fmt.Errorf("obs: report: attribution class counts sum %d != total %d", n, a.N)
		}
	}
	if f := rep.Flight; f != nil {
		if f.Schema != flight.Schema {
			return nil, fmt.Errorf("obs: report: flight schema %q, want %q", f.Schema, flight.Schema)
		}
		n := 0
		for _, d := range f.Dumps {
			if d.Records < 0 {
				return nil, fmt.Errorf("obs: report: flight dump %q record count negative", d.Trigger)
			}
			n += d.Records
		}
		if n != f.Records {
			return nil, fmt.Errorf("obs: report: flight dump records sum %d != total %d", n, f.Records)
		}
		if f.MinPAdmit < 0 || f.MinPAdmit > 1 {
			return nil, fmt.Errorf("obs: report: flight min_p_admit %g out of [0, 1]", f.MinPAdmit)
		}
	}
	return &rep, nil
}
