package stats

import (
	"math"
	"math/rand"
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
