package obs

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"aequitas/internal/sim"
)

// Sampler reports a set of named gauge values at one simulated instant.
// Implementations must emit in a deterministic order (sorted keys or a
// fixed traversal), because the registry assigns CSV columns in
// first-appearance order.
type Sampler func(now sim.Time, emit func(name string, v float64))

// Registry collects periodic metric samples into a wide-format time
// series: one row per Sample call, one column per distinct metric name.
// Columns may appear mid-run (admission state and connections are created
// lazily); earlier rows hold NaN for late columns and the CSV writer
// emits those cells empty.
type Registry struct {
	samplers []Sampler
	colIndex map[string]int
	cols     []string
	times    []float64
	rows     [][]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{colIndex: make(map[string]int)}
}

// Register adds a sampler invoked on every Sample tick, in registration
// order.
func (r *Registry) Register(s Sampler) {
	if r == nil || s == nil {
		return
	}
	r.samplers = append(r.samplers, s)
}

// Columns returns the metric names in column order.
func (r *Registry) Columns() []string {
	if r == nil {
		return nil
	}
	return r.cols
}

// Rows reports the number of sampled rows.
func (r *Registry) Rows() int {
	if r == nil {
		return 0
	}
	return len(r.rows)
}

// Value returns the sampled value at row i for the named column, or NaN.
func (r *Registry) Value(i int, name string) float64 {
	if r == nil || i < 0 || i >= len(r.rows) {
		return math.NaN()
	}
	idx, ok := r.colIndex[name]
	if !ok || idx >= len(r.rows[i]) {
		return math.NaN()
	}
	return r.rows[i][idx]
}

// Sample runs every sampler and appends one row at now.
func (r *Registry) Sample(now sim.Time) {
	if r == nil {
		return
	}
	row := make([]float64, len(r.cols))
	for i := range row {
		row[i] = math.NaN()
	}
	emit := func(name string, v float64) {
		idx, ok := r.colIndex[name]
		if !ok {
			idx = len(r.cols)
			r.colIndex[name] = idx
			r.cols = append(r.cols, name)
			row = append(row, math.NaN())
		}
		row[idx] = v
	}
	for _, s := range r.samplers {
		s(now, emit)
	}
	r.times = append(r.times, now.Seconds())
	r.rows = append(r.rows, row)
}

// MetricFamilies lists the metric-name prefixes emitted by the built-in
// samplers (per-port queues and drops, admission state, transport
// connection state, windowed tail quantiles). summarizeMetrics rejects
// columns no registered sampler could have produced.
var MetricFamilies = []string{"q.", "drop.", "padmit.", "incwin_us.", "cwnd.", "srtt_us.", "tail."}

// family returns the MetricFamilies prefix name starts with, without its
// dot, or "" when none matches.
func family(name string) string {
	for _, f := range MetricFamilies {
		if strings.HasPrefix(name, f) {
			return strings.TrimSuffix(f, ".")
		}
	}
	return ""
}

// tailQuantileSuffixes are the per-channel tail columns in ascending
// quantile order; summarizeMetrics checks each row's values are
// non-decreasing across them.
var tailQuantileSuffixes = []string{".p50_us", ".p90_us", ".p99_us", ".p999_us"}

// tailGroups maps header columns onto per-channel quantile column-index
// groups: for each "tail.<chan>" base present, the 1-based field indices
// of its p50/p90/p99/p99.9 columns (-1 where a column is absent).
func tailGroups(header []string) [][]int {
	var groups [][]int
	byBase := make(map[string]int) // channel base -> its index in groups
	for i, name := range header {
		for qi, suf := range tailQuantileSuffixes {
			base, ok := strings.CutSuffix(name, suf)
			if !ok || !strings.HasPrefix(name, "tail.") {
				continue
			}
			g, seen := byBase[base]
			if !seen {
				g = len(groups)
				byBase[base] = g
				groups = append(groups, []int{-1, -1, -1, -1})
			}
			groups[g][qi] = i
			break
		}
	}
	return groups
}

// readCSV reads a CSV artifact: header gets the first line's names, row
// every later non-blank line's fields with its physical line number, once
// their count has been checked against the header's.
func readCSV(r io.Reader, header func(names []string) error, row func(line int, fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		return cmp.Or(sc.Err(), errors.New("empty (no header)"))
	}
	names := strings.Split(sc.Text(), ",")
	if err := header(names); err != nil {
		return err
	}
	for line := 2; sc.Scan(); line++ {
		if sc.Text() == "" {
			continue
		}
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != len(names) {
			return fmt.Errorf("line %d: %d fields, header has %d", line, len(fields), len(names))
		}
		if err := row(line, fields); err != nil {
			return err
		}
	}
	return sc.Err()
}

// parseFinite parses a CSV cell that must hold a finite float.
func parseFinite(cell string) (float64, bool) {
	v, err := strconv.ParseFloat(cell, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// summarizeMetrics is the one reader of the metrics CSV Registry.WriteCSV
// writes. It checks the file as it summarises it: the header starts with
// t_s followed by unique, non-empty names, each in one of MetricFamilies;
// every row has the header's field count; t_s is finite and non-decreasing
// and every other cell empty or finite; and within each "tail.<chan>"
// channel a row's present quantile cells are non-decreasing from p50 to
// p99.9. Errors name the physical line number and the offending column.
func summarizeMetrics(r io.Reader) (*MetricsSummary, error) {
	ms := &MetricsSummary{Families: make(map[string]int)}
	var (
		header []string
		series []SeriesSummary // Mean holds the column's sum until the end
		vals   []float64       // the row's cells by field index, NaN where empty
		tails  [][]int
	)
	err := readCSV(r, func(names []string) error {
		if names[0] != "t_s" {
			return fmt.Errorf("line 1: first column must be \"t_s\", got %q", names[0])
		}
		seen := make(map[string]bool, len(names))
		for i, name := range names[1:] {
			fam := family(name)
			switch col := i + 2; { // 1-based, after t_s
			case name == "":
				return fmt.Errorf("line 1: column %d: empty name", col)
			case seen[name]:
				return fmt.Errorf("line 1: column %d: duplicate name %q", col, name)
			case fam == "":
				return fmt.Errorf("line 1: column %d: name %q matches no known metric family", col, name)
			}
			seen[name] = true
			ms.Families[fam]++
			series = append(series, SeriesSummary{Name: name, Min: math.Inf(1), Max: math.Inf(-1)})
		}
		header, ms.Columns = names, len(series)
		vals, tails = make([]float64, len(names)), tailGroups(names)
		return nil
	}, func(line int, fields []string) error {
		t, ok := parseFinite(fields[0])
		if !ok {
			return fmt.Errorf("line %d: column \"t_s\": not a finite float: %q", line, fields[0])
		}
		if ms.Rows > 0 && t < ms.EndS {
			return fmt.Errorf("line %d: column \"t_s\": %g before previous %g", line, t, ms.EndS)
		}
		if ms.Rows == 0 {
			ms.StartS = t
		}
		ms.EndS = t
		for i, cell := range fields[1:] {
			vals[i+1] = math.NaN()
			if cell == "" {
				continue
			}
			v, ok := parseFinite(cell)
			if !ok {
				return fmt.Errorf("line %d: column %q: not a finite float: %q", line, header[i+1], cell)
			}
			vals[i+1] = v
			s := &series[i]
			s.N++
			s.Mean += v
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
			s.Last = v
		}
		for _, g := range tails {
			prev, prevIdx := math.Inf(-1), -1
			for _, idx := range g {
				if idx < 0 || math.IsNaN(vals[idx]) {
					continue
				}
				if vals[idx] < prev {
					return fmt.Errorf("line %d: column %q: tail quantile %g below %q's %g",
						line, header[idx], vals[idx], header[prevIdx], prev)
				}
				prev, prevIdx = vals[idx], idx
			}
		}
		ms.Rows++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range series {
		if series[i].N > 0 {
			series[i].Mean /= float64(series[i].N)
			if math.IsInf(series[i].Mean, 0) {
				return nil, fmt.Errorf("column %q: sum overflows", series[i].Name)
			}
			ms.Series = append(ms.Series, series[i])
		}
	}
	return ms, nil
}

// WriteCSV writes the sampled series as wide-format CSV: a t_s time
// column followed by one column per metric. Cells never sampled in a row
// (columns that appeared later) are left empty.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("t_s"); err != nil {
		return err
	}
	for _, c := range r.cols {
		bw.WriteByte(',')
		bw.WriteString(c)
	}
	bw.WriteByte('\n')
	var buf []byte
	for i, row := range r.rows {
		buf = strconv.AppendFloat(buf[:0], r.times[i], 'f', 9, 64)
		for j := 0; j < len(r.cols); j++ {
			buf = append(buf, ',')
			if j < len(row) && !math.IsNaN(row[j]) {
				buf = strconv.AppendFloat(buf, row[j], 'g', -1, 64)
			}
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
