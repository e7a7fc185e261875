package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is a time series of (t, value) points, used for convergence plots
// such as admit probability and throughput over time (Figs 17, 18, 28, 29).
// A simulation's series are in simulated seconds.
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// Append adds one point. Points must be appended in non-decreasing time
// order.
func (s *Series) Append(t, v float64) {
	if n := len(s.T); n > 0 && t < s.T[n-1] {
		panic("stats: series points must be time-ordered")
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Final returns the last value, or def when empty.
func (s Series) Final(def float64) float64 {
	if len(s.V) == 0 {
		return def
	}
	return s.V[len(s.V)-1]
}

// MeanAfter returns the mean of values with T ≥ start, or NaN when the
// series has no samples after start — distinguishing "no data" from a
// true zero mean. Use MeanAfterOK when an explicit ok flag is clearer.
func (s Series) MeanAfter(start float64) float64 {
	m, ok := s.MeanAfterOK(start)
	if !ok {
		return math.NaN()
	}
	return m
}

// MeanAfterOK returns the mean of values with T ≥ start and whether any
// sample lay in that range.
func (s Series) MeanAfterOK(start float64) (mean float64, ok bool) {
	var sum float64
	n := 0
	for i, t := range s.T {
		if t >= start {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// MeanBetween returns the mean of values with start ≤ T < end, or NaN
// when no sample lies in that window — e.g. the pre-step and post-step
// admit probabilities around a load step.
func (s Series) MeanBetween(start, end float64) float64 {
	var sum float64
	n := 0
	for i, t := range s.T {
		if t >= start && t < end {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// SettlingTime returns the earliest time after which every value stays
// within ±tol of the series' final value, or the last timestamp if the
// series never settles. It is used to measure convergence time (§6.6).
func (s Series) SettlingTime(tol float64) float64 {
	n := len(s.V)
	if n == 0 {
		return 0
	}
	final := s.V[n-1]
	settle := s.T[n-1]
	for i := n - 1; i >= 0; i-- {
		if d := s.V[i] - final; d > tol || d < -tol {
			break
		}
		settle = s.T[i]
	}
	return settle
}

// Table renders aligned columns for experiment output. It is the single
// formatting helper used by cmd/figures so that every experiment prints the
// same way the paper's tables read.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; values are formatted with %v (floats with %.4g).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
}
