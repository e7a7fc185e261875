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

func TestSeriesAppendOrdering(t *testing.T) {
	var s Series
	s.Append(1, 10)
	s.Append(2, 20)
	s.Append(2, 25) // equal timestamps are in order
	s.Append(4, 40)
	if got := s.Final(-1); got != 40 {
		t.Errorf("Final = %v, want 40", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Append did not panic")
		}
	}()
	s.Append(1, 0)
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

func TestTable(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 0.123456)
	tb.AddRow("b", 42)
	var b strings.Builder
	tb.Write(&b)
	out := b.String()
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
