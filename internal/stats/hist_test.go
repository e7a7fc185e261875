package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// relErr is the |approx-exact|/exact relative error, treating exact 0
// specially (only an exact 0 answer is error-free there).
func relErr(approx, exact float64) float64 {
	if exact == 0 {
		if approx == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(approx-exact) / math.Abs(exact)
}

// quantileInputs are the adversarial streams the ≤1% bound is pinned on:
// heavy-tailed (skewed) and bimodal shapes are exactly where reservoir
// subsampling loses the tail.
func quantileInputs(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(42))
	skewed := make([]float64, n)
	for i := range skewed {
		// Lognormal-ish: exp of a normal, scaled to microsecond latencies.
		skewed[i] = 12 * math.Exp(1.6*rng.NormFloat64())
	}
	bimodal := make([]float64, n)
	for i := range bimodal {
		if rng.Float64() < 0.8 {
			bimodal[i] = 20 + 5*rng.Float64() // fast mode ~20-25us
		} else {
			bimodal[i] = 4000 + 1500*rng.Float64() // congested mode ~4-5.5ms
		}
	}
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1 + 999*rng.Float64()
	}
	return map[string][]float64{"skewed": skewed, "bimodal": bimodal, "uniform": uniform}
}

// TestHistQuantileError pins the acceptance criterion: histogram
// quantiles are within 1% relative error of exact order statistics at
// p50/p90/p99/p99.9 on skewed and bimodal inputs.
func TestHistQuantileError(t *testing.T) {
	for name, xs := range quantileInputs(200_000) {
		exact := &Sample{}
		h := NewHist()
		var sum float64
		for _, x := range xs {
			exact.Add(x)
			h.Record(x)
			sum += x
		}
		for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
			want := exact.Quantile(q)
			got := h.Quantile(q)
			if e := relErr(got, want); e > 0.01 {
				t.Errorf("%s q=%v: hist %.6g vs exact %.6g, rel err %.4f > 1%%",
					name, q, got, want, e)
			}
		}
		if h.N() != int64(exact.N()) {
			t.Errorf("%s: N %d != exact %d", name, h.N(), exact.N())
		}
		if h.Sum() != sum {
			t.Errorf("%s: Sum %v != exact %v", name, h.Sum(), sum)
		}
		if h.Quantile(0) != exact.Min() || h.Max() != exact.Max() {
			t.Errorf("%s: min/max %v/%v != exact %v/%v",
				name, h.Quantile(0), h.Max(), exact.Min(), exact.Max())
		}
	}
}

// TestHistEdgeCases: empty, zero/negative (underflow), overflow, reset.
func TestHistEdgeCases(t *testing.T) {
	h := NewHist()
	if !math.IsNaN(h.Quantile(0.5)) || !math.IsNaN(h.Mean()) {
		t.Error("empty hist should answer NaN")
	}
	h.Record(0)
	h.Record(-5)
	h.Record(1e18) // above the tracked range
	if h.N() != 3 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Quantile(0) != -5 || h.Max() != 1e18 {
		t.Errorf("min/max = %v/%v", h.Quantile(0), h.Max())
	}
	if q := h.Quantile(0.999); q != 1e18 {
		t.Errorf("overflow quantile = %v, want exact max", q)
	}
	if q := h.Quantile(0.01); q != -5 {
		t.Errorf("underflow quantile = %v, want exact min", q)
	}
	h.Reset()
	if h.N() != 0 || !math.IsNaN(h.Quantile(0.5)) {
		t.Error("reset did not empty the histogram")
	}
	h.Record(100)
	if h.Quantile(0.5) < 99 || h.Quantile(0.5) > 101 {
		t.Errorf("post-reset quantile = %v", h.Quantile(0.5))
	}
}

// TestHistRecordNoAlloc pins the 0 allocs/op record path.
func TestHistRecordNoAlloc(t *testing.T) {
	h := NewHist()
	v := 3.7
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v *= 1.01
	}); allocs != 0 {
		t.Errorf("Record allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestHistBucketsCumulative: Buckets yields ascending upper bounds whose
// counts sum to N, which is what the Prometheus renderer depends on.
func TestHistBucketsCumulative(t *testing.T) {
	h := NewHist()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		h.Record(math.Exp(3 * rng.NormFloat64()))
	}
	var total int64
	last := math.Inf(-1)
	h.Buckets(func(upper float64, count int64) {
		if upper <= last {
			t.Fatalf("bucket bounds not ascending: %v after %v", upper, last)
		}
		last = upper
		total += count
	})
	if total != h.N() {
		t.Errorf("bucket counts sum to %d, N = %d", total, h.N())
	}
}

// TestHistMerge: values spread over several histograms and merged read
// back as one histogram fed every value, under- and overflow included;
// merging nil or an empty histogram changes nothing. The values are
// integers, so the sum is exact in any order.
func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	whole := NewHist()
	parts := []*Hist{NewHist(), NewHist(), NewHist(), NewHist()}
	for i := 0; i < 5000; i++ {
		v := math.Round(math.Exp(4 * rng.NormFloat64()))
		if i%997 == 0 {
			v = -v
		}
		whole.Record(v)
		parts[rng.Intn(3)].Record(v) // parts[3] stays empty
	}
	merged := NewHist()
	for _, p := range parts {
		merged.Merge(p)
	}
	merged.Merge(nil)
	if merged.N() != whole.N() || merged.Sum() != whole.Sum() || merged.Max() != whole.Max() {
		t.Fatalf("merged n/sum/max %d/%v/%v, whole %d/%v/%v",
			merged.N(), merged.Sum(), merged.Max(), whole.N(), whole.Sum(), whole.Max())
	}
	for _, q := range []float64{0, 0.001, 0.5, 0.9, 0.999, 1} {
		if a, b := merged.Quantile(q), whole.Quantile(q); a != b {
			t.Errorf("q%v: merged %v, whole %v", q, a, b)
		}
	}
	var mb, wb []int64
	merged.Buckets(func(_ float64, c int64) { mb = append(mb, c) })
	whole.Buckets(func(_ float64, c int64) { wb = append(wb, c) })
	if !slices.Equal(mb, wb) {
		t.Errorf("bucket counts differ: merged %d buckets, whole %d", len(mb), len(wb))
	}
}

// BenchmarkHistRecord is the tracked 0 allocs/op record-path benchmark.
func BenchmarkHistRecord(b *testing.B) {
	h := NewHist()
	xs := quantileInputs(4096)["skewed"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(xs[i&4095])
	}
}

// BenchmarkHistQuantile measures a tail-quantile read on a well-filled
// histogram — the per-window cost of the tail time-series sampler.
func BenchmarkHistQuantile(b *testing.B) {
	h := NewHist()
	for _, x := range quantileInputs(200_000)["bimodal"] {
		h.Record(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += h.Quantile(0.999)
	}
	_ = sink
}
