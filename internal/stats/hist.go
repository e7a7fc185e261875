package stats

import "math"

// Hist is a log-linear (HDR-style) fixed-bucket histogram: each power-of-
// two octave of the value range is split into histSub equal-width linear
// sub-buckets, so the relative width of every bucket is at most 1/histSub
// and a quantile read off a bucket midpoint is within 1/(2·histSub) ≈
// 0.78% of the exact order statistic — at any stream length, with memory
// fixed at construction. This is the bounded-error replacement for
// reservoir-sampled quantiles on long runs: the reservoir keeps the error
// unbounded-in-probability as streams grow, while the histogram's error
// is a deterministic geometry constant.
//
// Count, Sum, Mean, Max and the minimum, Quantile(0), are exact (tracked
// outside the buckets).
// The zero value is not ready to use; call NewHist.
//
// Record performs no allocation — the bucket array is allocated once by
// NewHist — which keeps it safe for simulator hot paths.
type Hist struct {
	counts []int64
	n      int64
	sum    float64
	min    float64
	max    float64
	// lo, hi bound the touched bucket index range so Reset and quantile
	// scans are O(touched), not O(buckets).
	lo, hi int
}

const (
	// histSub is the number of linear sub-buckets per octave. 64 puts the
	// worst-case relative quantile error at 1/(2·64) ≈ 0.78% (< the 1%
	// budget pinned by TestHistQuantileError).
	histSub = 64
	// histMinExp / histMaxExp bound the tracked octaves: values in
	// [2^histMinExp, 2^histMaxExp). For microsecond-denominated latencies
	// that is ~1 ns to ~2200 s; values outside fall into exact-count
	// underflow/overflow buckets (their quantiles clamp to the minimum and Max).
	histMinExp = -10
	histMaxExp = 41
	// histBuckets = underflow + octaves·sub + overflow.
	histBuckets = 1 + (histMaxExp-histMinExp)*histSub + 1
)

// histMinVal / histMaxVal are the tracked range bounds as floats.
var (
	histMinVal = math.Ldexp(1, histMinExp)
	histMaxVal = math.Ldexp(1, histMaxExp)
)

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{
		counts: make([]int64, histBuckets),
		min:    math.Inf(1),
		max:    math.Inf(-1),
		lo:     histBuckets,
		hi:     -1,
	}
}

// histIndex maps a value to its bucket. Values below the tracked range
// (including zero, negatives and NaN) land in the underflow bucket 0;
// values at or above the range top land in the final overflow bucket.
func histIndex(v float64) int {
	if !(v >= histMinVal) {
		return 0
	}
	if v >= histMaxVal {
		return histBuckets - 1
	}
	// Frexp: v = m · 2^e with m ∈ [0.5, 1), i.e. v ∈ [2^(e-1), 2^e).
	// The octave is e-1; (m-0.5)·2·sub picks the linear sub-bucket.
	m, e := math.Frexp(v)
	return 1 + (e-1-histMinExp)*histSub + int((m-0.5)*(2*histSub))
}

// histBucketBounds returns the [lo, hi) value range of bucket idx.
func histBucketBounds(idx int) (lo, hi float64) {
	switch {
	case idx <= 0:
		return 0, histMinVal
	case idx >= histBuckets-1:
		return histMaxVal, math.Inf(1)
	}
	idx--
	octave := histMinExp + idx/histSub
	frac := idx % histSub
	base := math.Ldexp(1, octave)
	step := base / histSub
	lo = base + float64(frac)*step
	return lo, lo + step
}

// Record adds one observation. It never allocates.
func (h *Hist) Record(v float64) {
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	idx := histIndex(v)
	h.counts[idx]++
	if idx < h.lo {
		h.lo = idx
	}
	if idx > h.hi {
		h.hi = idx
	}
}

// N reports the number of recorded observations.
func (h *Hist) N() int64 { return h.n }

// Sum reports the exact sum of all observations.
func (h *Hist) Sum() float64 { return h.sum }

// Mean reports the exact arithmetic mean, or NaN if empty.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// Max reports the exact largest observation, or NaN if empty.
func (h *Hist) Max() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank
// method over buckets, reporting the matched bucket's midpoint clamped to
// the exact observed [Min, Max]. The relative error versus the exact
// order statistic is at most 1/(2·histSub) for values inside the tracked
// range. Returns NaN if the histogram is empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := h.lo; i <= h.hi; i++ {
		cum += h.counts[i]
		if cum >= rank {
			lo, hi := histBucketBounds(i)
			v := (lo + hi) / 2
			if i == 0 {
				// Underflow bucket: below the tracked range the geometry
				// gives no sub-structure; the exact minimum is the best
				// bounded answer.
				v = h.min
			}
			if i == histBuckets-1 {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds every observation of o to h, as if each had been recorded
// into h: counts, n, min, max and the touched range exactly, the sum up to
// the order of its float additions. A nil o merges nothing.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.n == 0 {
		return
	}
	for i := o.lo; i <= o.hi; i++ {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
	h.min = min(h.min, o.min)
	h.max = max(h.max, o.max)
	h.lo = min(h.lo, o.lo)
	h.hi = max(h.hi, o.hi)
}

// Reset clears the histogram for reuse (windowed collection). Only the
// touched bucket range is zeroed, so resetting a sparsely-filled
// histogram is cheap.
func (h *Hist) Reset() {
	for i := h.lo; i <= h.hi; i++ {
		h.counts[i] = 0
	}
	h.n = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
	h.lo = histBuckets
	h.hi = -1
}

// Buckets calls f for every non-empty bucket in ascending value order
// with the bucket's inclusive upper value bound and its count. The
// Prometheus renderer builds its cumulative _bucket series from this.
func (h *Hist) Buckets(f func(upper float64, count int64)) {
	for i := h.lo; i <= h.hi && i >= 0; i++ {
		if h.counts[i] == 0 {
			continue
		}
		_, hi := histBucketBounds(i)
		f(hi, h.counts[i])
	}
}
