// Package stats provides the measurement primitives used across the
// simulator and the experiment harness: exact percentile samples, CDFs,
// fixed-bucket histograms, and time series.
//
// Simulation experiments collect up to a few million scalar samples, so the
// default Sample keeps every observation and computes exact order
// statistics; a histogram-backed variant bounds memory on very long runs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and computes exact quantiles.
// The zero value is ready to use and retains every observation. A sample
// built with NewHistSample instead keeps a fixed-size histogram, so
// memory stays bounded on arbitrarily long streams: Sum, Mean and N
// remain exact over the whole stream while order statistics (quantiles,
// CDF, StdDev) carry the histogram's bounded error.
//
// The first order statistic asked of an exact sample sorts it: with
// sort.Float64s below radixCutoff observations, from there on with a radix
// sort that gives the same order two to three times faster on a million
// RNL values, using two words of scratch per observation while it runs.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
	seen   int64
	// hist, when set, replaces retained observations entirely: order
	// statistics come from the log-linear histogram (bounded error at any
	// stream length) while Sum/Mean/N/Min/Max stay exact.
	hist *Hist
}

// NewHistSample returns a Sample backed by a log-linear histogram instead
// of retained observations: memory is fixed at construction, Sum, Mean, N,
// Min and Max are exact over the whole stream, and quantiles carry a
// deterministic ≤1/(2·64) ≈ 0.78% relative error bound — unlike a
// reservoir, whose quantile error grows unboundedly likely with stream
// length. Identical insertion sequences yield identical state, preserving
// run-to-run determinism (no RNG is involved at all).
func NewHistSample() *Sample {
	return &Sample{hist: NewHist()}
}

// Hist returns the histogram backing this sample, or nil for an exact
// sample.
func (s *Sample) Hist() *Hist { return s.hist }

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.seen++
	s.sum += x
	if s.hist != nil {
		s.hist.Record(x)
		return
	}
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N reports the number of observations offered.
func (s *Sample) N() int { return int(s.seen) }

// Sum reports the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean over every observation offered, or NaN
// if empty.
func (s *Sample) Mean() float64 {
	if s.seen == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.seen)
}

// radixCutoff is the sample size from which sort uses radixSort: below
// about a thousand values sort.Float64s is done first.
const radixCutoff = 1 << 10

func (s *Sample) sort() {
	if !s.sorted {
		if len(s.xs) < radixCutoff {
			sort.Float64s(s.xs)
		} else {
			radixSort(s.xs)
		}
		s.sorted = true
	}
}

// radixSort sorts xs into sort.Float64s's order — NaNs first, then
// ascending, with -0 before +0, which that order holds equal — by an LSD
// radix sort, 11 bits a digit, of keys that order as the values do: a
// positive value's bits with the sign bit set, a negative value's bits
// all flipped. A digit every key has in common takes no pass.
func radixSort(xs []float64) {
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	xs = xs[nan:]
	keys, buf := make([]uint64, len(xs)), make([]uint64, len(xs))
	var diff uint64 // the bits on which some keys differ
	for i, x := range xs {
		k := math.Float64bits(x)
		keys[i] = k ^ (uint64(int64(k)>>63) | 1<<63)
		diff |= keys[i] ^ keys[0]
	}
	const bits, mask = 11, 1<<11 - 1
	var count [1 << bits]int
	for shift := uint(0); shift < 64; shift += bits {
		if diff>>shift&mask == 0 {
			continue
		}
		clear(count[:])
		for _, k := range keys {
			count[k>>shift&mask]++
		}
		for d, sum := 0, 0; d < len(count); d++ {
			count[d], sum = sum, sum+count[d]
		}
		for _, k := range keys {
			d := k >> shift & mask
			buf[count[d]] = k
			count[d]++
		}
		keys, buf = buf, keys
	}
	for i, k := range keys {
		xs[i] = math.Float64frombits(k ^ (^uint64(int64(k)>>63) | 1<<63))
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank
// method, or NaN if the sample is empty. Quantile(0.999) is the paper's
// "99.9th-p". Histogram-backed samples answer with bounded (≤1%) relative
// error instead of an exact order statistic.
func (s *Sample) Quantile(q float64) float64 {
	if s.hist != nil {
		return s.hist.Quantile(q)
	}
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	// Nearest-rank: ceil(q*N) with 1-based ranks.
	rank := int(math.Ceil(q * float64(len(s.xs))))
	if rank < 1 {
		rank = 1
	}
	return s.xs[rank-1]
}

// Percentile returns the p-th percentile, p in [0,100].
func (s *Sample) Percentile(p float64) float64 { return s.Quantile(p / 100) }

// Min and Max return the extreme observations, or NaN if empty.
func (s *Sample) Min() float64 { return s.Quantile(0) }
func (s *Sample) Max() float64 { return s.Quantile(1) }

// StdDev returns the population standard deviation, or NaN if empty.
func (s *Sample) StdDev() float64 {
	if s.hist != nil {
		return s.hist.StdDev()
	}
	n := len(s.xs)
	if n == 0 {
		return math.NaN()
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Values returns a copy of the observations in insertion-independent
// (sorted) order. Histogram-backed samples retain no observations and
// return nil.
func (s *Sample) Values() []float64 {
	if s.hist != nil {
		return nil
	}
	s.sort()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// CountAbove reports how many observations exceed x (bucket-granular for
// histogram-backed samples).
func (s *Sample) CountAbove(x float64) int {
	if s.hist != nil {
		return int(s.hist.CountAbove(x))
	}
	s.sort()
	return len(s.xs) - sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
}

// CDF returns (value, cumulative-fraction) points suitable for plotting,
// thinned to at most maxPoints.
func (s *Sample) CDF(maxPoints int) []Point {
	if s.hist != nil {
		return s.hist.CDF(maxPoints)
	}
	s.sort()
	n := len(s.xs)
	if n == 0 {
		return nil
	}
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	pts := make([]Point, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := (i + 1) * n / maxPoints
		if idx > n {
			idx = n
		}
		pts = append(pts, Point{X: s.xs[idx-1], Y: float64(idx) / float64(n)})
	}
	return pts
}

// Point is a generic (x, y) pair used for plot-like outputs.
type Point struct{ X, Y float64 }

// Summary is a compact set of descriptive statistics.
type Summary struct {
	N                   int
	Mean, Min, Max      float64
	P50, P90, P99, P999 float64
}

// Summarize computes a Summary from s.
func Summarize(s *Sample) Summary {
	return Summary{
		N: s.N(), Mean: s.Mean(), Min: s.Min(), Max: s.Max(),
		P50: s.Quantile(0.50), P90: s.Quantile(0.90),
		P99: s.Quantile(0.99), P999: s.Quantile(0.999),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g p99.9=%.3g max=%.3g",
		s.N, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}
