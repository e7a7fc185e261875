package obs

import (
	"strings"
	"testing"

	"aequitas/internal/sim"
)

// collectEmits runs the sampler once and returns the (name, value) pairs
// in emission order.
func collectEmits(s Sampler) ([]string, []float64) {
	var names []string
	var vals []float64
	s(0, func(name string, v float64) {
		names = append(names, name)
		vals = append(vals, v)
	})
	return names, vals
}

// TestTailTrackerWindows: emission order is sorted (dst, class) whatever
// the observation order, each window resets, and empty channels emit
// nothing.
func TestTailTrackerWindows(t *testing.T) {
	tr := NewTailTracker()
	sampler := tr.Sampler()

	// Observe out of order across three channels.
	tr.Observe(2, 1, 30)
	tr.Observe(0, 0, 10)
	tr.Observe(2, 0, 20)
	tr.Observe(0, 0, 12)
	names, vals := collectEmits(sampler)
	wantNames := []string{
		"tail.d0.q0.n", "tail.d0.q0.p50_us", "tail.d0.q0.p90_us", "tail.d0.q0.p99_us", "tail.d0.q0.p999_us",
		"tail.d2.q0.n", "tail.d2.q0.p50_us", "tail.d2.q0.p90_us", "tail.d2.q0.p99_us", "tail.d2.q0.p999_us",
		"tail.d2.q1.n", "tail.d2.q1.p50_us", "tail.d2.q1.p90_us", "tail.d2.q1.p99_us", "tail.d2.q1.p999_us",
	}
	if strings.Join(names, " ") != strings.Join(wantNames, " ") {
		t.Fatalf("window 1 emitted %v, want %v", names, wantNames)
	}
	if vals[0] != 2 || vals[5] != 1 || vals[10] != 1 {
		t.Errorf("window counts = %v/%v/%v, want 2/1/1", vals[0], vals[5], vals[10])
	}
	// Quantiles within a channel must be non-decreasing.
	for i := 0; i < len(names); i += 5 {
		for j := i + 2; j < i+5; j++ {
			if vals[j] < vals[j-1] {
				t.Errorf("%s = %v below %s = %v", names[j], vals[j], names[j-1], vals[j-1])
			}
		}
	}

	// Window 2: only one channel active; the others stay silent.
	tr.Observe(2, 0, 100)
	names, vals = collectEmits(sampler)
	if len(names) != 5 || names[0] != "tail.d2.q0.n" || vals[0] != 1 {
		t.Fatalf("window 2 emitted %v %v, want only tail.d2.q0 with n=1", names, vals)
	}

	// Window 3: nothing observed, nothing emitted.
	if names, _ := collectEmits(sampler); len(names) != 0 {
		t.Fatalf("empty window emitted %v", names)
	}
}

// TestTailTrackerNilDisabled: the nil tracker is the zero-cost disabled
// path.
func TestTailTrackerNilDisabled(t *testing.T) {
	var tr *TailTracker
	tr.Observe(0, 0, 1) // must not panic
}

// TestTailTrackerInRegistry: tail columns land in the CSV and pass the
// metrics reader's tail family and monotonicity checks.
func TestTailTrackerInRegistry(t *testing.T) {
	tr := NewTailTracker()
	reg := NewRegistry()
	reg.Register(tr.Sampler())
	for i := 0; i < 3; i++ {
		for j := 0; j < 50; j++ {
			tr.Observe(1, 0, float64(10+j*i))
		}
		reg.Sample(sim.Time(i) * 1000)
	}
	var b strings.Builder
	if err := reg.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	ms, err := summarizeMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("tail CSV rejected: %v\n%s", err, b.String())
	}
	if ms.Rows != 3 {
		t.Errorf("rows = %d, want 3", ms.Rows)
	}
}

// TestValidateMetricsCSVTailMonotonic: a row whose p99 undercuts its p90
// within the same channel is rejected, naming the column; the same values
// on different channels pass.
func TestValidateMetricsCSVTailMonotonic(t *testing.T) {
	bad := "t_s,tail.d0.q0.p50_us,tail.d0.q0.p90_us,tail.d0.q0.p99_us\n" +
		"0.000000000,10,50,20\n"
	if _, err := summarizeMetrics(strings.NewReader(bad)); err == nil {
		t.Error("descending tail quantiles accepted")
	} else if !strings.Contains(err.Error(), "tail.d0.q0.p99_us") {
		t.Errorf("error does not name the offending column: %v", err)
	}
	ok := "t_s,tail.d0.q0.p90_us,tail.d1.q0.p50_us\n" +
		"0.000000000,50,20\n"
	if _, err := summarizeMetrics(strings.NewReader(ok)); err != nil {
		t.Errorf("cross-channel values misread as one channel: %v", err)
	}
	// Empty cells (channel quiet that window) are fine.
	gaps := "t_s,tail.d0.q0.p50_us,tail.d0.q0.p90_us,tail.d0.q0.p99_us\n" +
		"0.000000000,10,,20\n"
	if _, err := summarizeMetrics(strings.NewReader(gaps)); err != nil {
		t.Errorf("row with empty tail cell rejected: %v", err)
	}
}

// TestTailSamplerSteadyState: a channel's five names are built when it
// first emits; windows after that emit the same strings and allocate
// nothing (the names were rebuilt for every window).
func TestTailSamplerSteadyState(t *testing.T) {
	tr := NewTailTracker()
	sample := tr.Sampler()
	observe := func() {
		tr.Observe(3, 0, 12.5)
		tr.Observe(1, 2, 800)
		tr.Observe(1, 2, 4000)
	}
	observe()
	first, _ := collectEmits(sample)
	if len(first) != 10 || first[0] != "tail.d1.q2.n" || first[9] != "tail.d3.q0.p999_us" {
		t.Fatalf("first window emitted %v", first)
	}
	i := 0
	check := func(name string, _ float64) {
		if name != first[i%len(first)] {
			t.Errorf("emission %d is %q, the first window's was %q", i, name, first[i%len(first)])
		}
		i++
	}
	allocs := testing.AllocsPerRun(10, func() {
		observe()
		sample(0, check)
	})
	if allocs != 0 || i != 11*len(first) {
		t.Errorf("%v allocations per window after the first, %d emissions; want 0, %d", allocs, i, 11*len(first))
	}
}
