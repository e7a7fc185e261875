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
// cmd/obsreport builds, renders, and diffs these.
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
// report.
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

// DiffRow is one metric compared across two reports.
type DiffRow struct {
	Metric string   `json:"metric"`
	A      *float64 `json:"a,omitempty"` // nil when the metric is absent in run A
	B      *float64 `json:"b,omitempty"` // nil when the metric is absent in run B
	Delta  float64  `json:"delta"`
	Pct    float64  `json:"pct"` // 100·(B-A)/|A|; 1e9 = one-sided or growth from zero
}

// ReportDiff is the per-metric comparison of two reports.
type ReportDiff struct {
	Schema string    `json:"schema"`
	LabelA string    `json:"label_a"`
	LabelB string    `json:"label_b"`
	Rows   []DiffRow `json:"rows"`
}

// DiffSchema versions the diff JSON document.
const DiffSchema = "aequitas.obsreport-diff/v1"

// DiffReports compares every scalar metric present in both reports (and
// flags metrics present in only one with the other side NaN-free zero
// and an infinite pct, clamped for JSON). Rows are ordered by descending
// |pct| so the biggest movements lead.
func DiffReports(a, b *Report) *ReportDiff {
	av, ak := flattenReport(a)
	bv, bk := flattenReport(b)
	d := &ReportDiff{Schema: DiffSchema, LabelA: a.Label, LabelB: b.Label}
	seen := make(map[string]bool, len(ak))
	for _, k := range ak {
		seen[k] = true
		x := av[k]
		y, ok := bv[k]
		if !ok {
			y = math.NaN()
		}
		d.Rows = append(d.Rows, diffRow(k, x, y))
	}
	// Metrics only in b, in b's order.
	for _, k := range bk {
		if !seen[k] {
			d.Rows = append(d.Rows, diffRow(k, math.NaN(), bv[k]))
		}
	}
	// Genuine movements first by relative size; one-sided/from-zero
	// sentinel rows after them, in flatten order.
	sort.SliceStable(d.Rows, func(i, j int) bool {
		si, sj := d.Rows[i].Pct >= 1e9, d.Rows[j].Pct >= 1e9
		if si != sj {
			return sj
		}
		if si {
			return false
		}
		return math.Abs(d.Rows[i].Pct) > math.Abs(d.Rows[j].Pct)
	})
	return d
}

// diffRow compares one metric; NaN on either side means the metric is
// absent from that run (encoded as a nil pointer, keeping the row
// JSON-marshalable).
func diffRow(k string, a, b float64) DiffRow {
	row := DiffRow{Metric: k}
	if !math.IsNaN(a) {
		row.A = &a
	}
	if !math.IsNaN(b) {
		row.B = &b
	}
	switch {
	case row.A == nil || row.B == nil:
		row.Pct = 1e9
	case a == 0 && b == 0:
		row.Pct = 0
	case a == 0:
		row.Delta = b
		row.Pct = 1e9
	default:
		row.Delta = b - a
		row.Pct = 100 * (b - a) / math.Abs(a)
	}
	return row
}

// flattenReport lists every scalar metric of a report as name → value,
// plus the deterministic name order.
func flattenReport(rep *Report) (map[string]float64, []string) {
	vals := make(map[string]float64)
	var order []string
	put := func(name string, v float64) {
		if math.IsNaN(v) {
			return
		}
		if _, dup := vals[name]; !dup {
			order = append(order, name)
		}
		vals[name] = v
	}
	if t := rep.Trace; t != nil {
		put("trace.events", float64(t.Events))
		for _, k := range sortedKeys(t.Kinds) {
			put("trace.kinds."+k, float64(t.Kinds[k]))
		}
		putQuant := func(prefix string, q QuantilesUS) {
			put(prefix+".n", float64(q.N))
			put(prefix+".mean_us", q.MeanUS)
			put(prefix+".p50_us", q.P50US)
			put(prefix+".p90_us", q.P90US)
			put(prefix+".p99_us", q.P99US)
			put(prefix+".p999_us", q.P999US)
			put(prefix+".max_us", q.MaxUS)
		}
		putQuant("trace.rnl", t.RNL)
		for _, k := range sortedKeys(t.RNLByClass) {
			putQuant("trace.rnl."+k, t.RNLByClass[k])
		}
	}
	if m := rep.Metrics; m != nil {
		put("metrics.rows", float64(m.Rows))
		put("metrics.columns", float64(m.Columns))
		for _, s := range m.Series {
			put("metrics."+s.Name+".mean", s.Mean)
			put("metrics."+s.Name+".max", s.Max)
		}
	}
	if a := rep.Attribution; a != nil {
		put("attr.n", float64(a.N))
		for _, c := range a.Classes {
			for _, comp := range attrComponents {
				if v, ok := c.MeanUS[comp]; ok {
					put("attr."+c.Class+"."+comp+".mean", v)
				}
			}
		}
	}
	if f := rep.Flight; f != nil {
		put("flight.dumps", float64(len(f.Dumps)))
		put("flight.records", float64(f.Records))
		put("flight.sampled_out", float64(f.SampledOut))
		put("flight.min_p_admit", f.MinPAdmit)
		put("flight.max_lat_us", f.MaxLatUS)
		for _, k := range sortedKeys(f.ByVerdict) {
			put("flight.verdict."+k, float64(f.ByVerdict[k]))
		}
	}
	return vals, order
}

// WriteMarkdown renders the diff, largest relative movements first,
// capped at maxRows (0 = all) with a note about omitted rows.
func (d *ReportDiff) WriteMarkdown(w io.Writer, maxRows int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Run diff: %s vs %s\n\n", orUnnamed(d.LabelA), orUnnamed(d.LabelB))
	fmt.Fprintf(bw, "| metric | %s | %s | delta | pct |\n|---|---:|---:|---:|---:|\n",
		orUnnamed(d.LabelA), orUnnamed(d.LabelB))
	rows := d.Rows
	omitted := 0
	if maxRows > 0 && len(rows) > maxRows {
		omitted = len(rows) - maxRows
		rows = rows[:maxRows]
	}
	side := func(p *float64) string {
		if p == nil {
			return "—"
		}
		return fmt.Sprintf("%.4g", *p)
	}
	for _, r := range rows {
		pct := fmt.Sprintf("%+.1f%%", r.Pct)
		if r.Pct >= 1e9 {
			pct = "new/only"
		}
		fmt.Fprintf(bw, "| %s | %s | %s | %+.4g | %s |\n", r.Metric, side(r.A), side(r.B), r.Delta, pct)
	}
	if omitted > 0 {
		fmt.Fprintf(bw, "\n%d smaller-movement rows omitted (use -all for every metric).\n", omitted)
	}
	return bw.Flush()
}

// WriteJSON writes the diff as indented JSON.
func (d *ReportDiff) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

func orUnnamed(s string) string {
	if s == "" {
		return "(unnamed)"
	}
	return s
}
