package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// sampleOf returns an exact sample holding xs.
func sampleOf(xs ...float64) *Sample {
	s := &Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty sample should produce NaN")
	}
	for _, x := range []float64{3, 1, 2} {
		s.Add(x)
	}
	if s.N() != 3 {
		t.Errorf("N = %d", s.N())
	}
	if s.Sum() != 6 {
		t.Errorf("Sum = %v", s.Sum())
	}
	if s.Mean() != 2 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 3 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.5, 50}, {0.99, 99}, {0.999, 100}, {0.01, 1}, {0, 1}, {1, 100},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := s.Percentile(90); got != 90 {
		t.Errorf("Percentile(90) = %v", got)
	}
}

func TestQuantileInterleavedAdd(t *testing.T) {
	var s Sample
	s.Add(5)
	_ = s.Quantile(0.5) // force a sort
	s.Add(1)            // must invalidate sorted state
	if got := s.Min(); got != 1 {
		t.Errorf("Min after re-add = %v, want 1", got)
	}
}

func TestStdDev(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.StdDev(); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestCountAboveAndFractionWithin(t *testing.T) {
	s := sampleOf(1, 2, 2, 3, 10)
	if got := s.CountAbove(2); got != 2 {
		t.Errorf("CountAbove(2) = %d, want 2", got)
	}
	if got := s.CountAbove(10); got != 0 {
		t.Errorf("CountAbove(10) = %d, want 0", got)
	}
	// The fraction within x is the complement of CountAbove over N.
	if got := 1 - float64(s.CountAbove(2))/float64(s.N()); got != 0.6 {
		t.Errorf("fraction within 2 = %v, want 0.6", got)
	}
}

func TestCDF(t *testing.T) {
	var s Sample
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	pts := s.CDF(10)
	if len(pts) != 10 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("final CDF point Y = %v, want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatalf("CDF not monotone at %d: %+v", i, pts)
		}
	}
	if got := s.CDF(0); len(got) != 1000 {
		t.Errorf("CDF(0) should keep all points, got %d", len(got))
	}
}

func TestQuantileMatchesSortProperty(t *testing.T) {
	f := func(raw []float64, q01 uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := float64(q01%101) / 100
		got := sampleOf(xs...).Quantile(q)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		rank := int(math.Ceil(q * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		return got == sorted[rank-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	var s Sample
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		s.Add(rng.Float64())
	}
	sum := Summarize(&s)
	if sum.N != 10000 {
		t.Errorf("N = %d", sum.N)
	}
	if sum.P50 < 0.45 || sum.P50 > 0.55 {
		t.Errorf("P50 = %v", sum.P50)
	}
	if sum.P999 < sum.P99 || sum.P99 < sum.P90 || sum.P90 < sum.P50 {
		t.Error("percentiles not monotone")
	}
	if !strings.Contains(sum.String(), "n=10000") {
		t.Errorf("String() = %q", sum.String())
	}
}

func TestSeriesAtAndOrdering(t *testing.T) {
	var s Series
	s.Append(1, 10)
	s.Append(2, 20)
	s.Append(2, 25) // duplicate timestamp: last wins
	s.Append(4, 40)
	if got := s.At(0.5, -1); got != -1 {
		t.Errorf("At(0.5) = %v, want default", got)
	}
	if got := s.At(2, 0); got != 25 {
		t.Errorf("At(2) = %v, want 25", got)
	}
	if got := s.At(3, 0); got != 25 {
		t.Errorf("At(3) = %v, want 25", got)
	}
	if got := s.At(9, 0); got != 40 {
		t.Errorf("At(9) = %v, want 40", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Append did not panic")
		}
	}()
	s.Append(1, 0)
}

func TestSeriesMeanValue(t *testing.T) {
	var s Series
	s.Append(0, 0)
	s.Append(1, 10) // value 0 holds for [0,1)
	s.Append(3, 0)  // value 10 holds for [1,3)
	// time-weighted mean over [0,3) = (0*1 + 10*2)/3
	if got := s.MeanValue(); math.Abs(got-20.0/3) > 1e-12 {
		t.Errorf("MeanValue = %v", got)
	}
	var one Series
	one.Append(5, 7)
	if one.MeanValue() != 7 {
		t.Errorf("single-point MeanValue = %v", one.MeanValue())
	}
}

func TestSeriesSettlingTime(t *testing.T) {
	var s Series
	s.Append(0, 0)
	s.Append(1, 0.5)
	s.Append(2, 0.95)
	s.Append(3, 1.02)
	s.Append(4, 0.99)
	s.Append(5, 1.0)
	if got := s.SettlingTime(0.05); got != 3 {
		t.Errorf("SettlingTime = %v, want 3", got)
	}
	if got := s.SettlingTime(1e-9); got != 5 {
		t.Errorf("strict SettlingTime = %v, want 5", got)
	}
}

func TestSeriesAfterAndDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Append(float64(i), float64(i*i))
	}
	tail := s.After(90)
	if tail.Len() != 10 || tail.T[0] != 90 {
		t.Errorf("After(90) = len %d first %v", tail.Len(), tail.T)
	}
	d := s.Downsample(5)
	if d.Len() != 5 || d.T[0] != 0 || d.T[4] != 99 {
		t.Errorf("Downsample endpoints: %v", d.T)
	}
	full := s.Downsample(1000)
	if full.Len() != 100 {
		t.Errorf("Downsample above size should copy all, got %d", full.Len())
	}
}

// TestSeriesDownsampleTinyBudgets pins the maxPoints edge cases:
// maxPoints=1 must not divide by zero (it keeps the first point),
// maxPoints=2 keeps exactly first+last, and maxPoints<=0 means "no
// limit" and copies the whole series.
func TestSeriesDownsampleTinyBudgets(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(10*i))
	}
	one := s.Downsample(1)
	if one.Len() != 1 || one.T[0] != 0 || one.V[0] != 0 {
		t.Errorf("Downsample(1) = T %v V %v, want first point only", one.T, one.V)
	}
	two := s.Downsample(2)
	if two.Len() != 2 || two.T[0] != 0 || two.T[1] != 9 {
		t.Errorf("Downsample(2) = %v, want first and last", two.T)
	}
	all := s.Downsample(0)
	if all.Len() != 10 {
		t.Errorf("Downsample(0) len = %d, want full copy", all.Len())
	}
	var empty Series
	if got := empty.Downsample(1); got.Len() != 0 {
		t.Errorf("empty Downsample(1) len = %d, want 0", got.Len())
	}
}

// TestSeriesAfterNoAliasing verifies that appending to an After()
// sub-series cannot overwrite the parent's points: the sub-series
// slices are capacity-capped, so growth reallocates.
func TestSeriesAfterNoAliasing(t *testing.T) {
	var s Series
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(i))
	}
	tail := s.After(2)
	s.Append(5, 5)
	tail.Append(100, -1)
	if s.T[5] != 5 || s.V[5] != 5 {
		t.Errorf("parent point clobbered by sub-series append: T[5]=%v V[5]=%v", s.T[5], s.V[5])
	}
	if tail.Len() != 4 || tail.T[3] != 100 {
		t.Errorf("sub-series append lost: %v", tail.T)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 0.123456)
	tb.AddRow("b", 42)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "alpha") || !strings.Contains(lines[1], "0.1235") {
		t.Errorf("row = %q", lines[1])
	}
}

func BenchmarkSampleAddQuantile(b *testing.B) {
	var s Sample
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Float64())
	}
	_ = s.Quantile(0.999)
}
