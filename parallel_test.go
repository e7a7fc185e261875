package aequitas

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sweepCluster is a small, fast cluster config used by the parallel-engine
// tests; i varies the QoSh share so entries are genuinely distinct.
func sweepCluster(i int) SimConfig {
	share := 0.3 + 0.05*float64(i)
	return SimConfig{
		System:     SystemAequitas,
		Hosts:      4,
		Seed:       int64(i + 1),
		Duration:   6 * time.Millisecond,
		QoSWeights: []float64{8, 4, 1},
		SLOs: []SLO{
			{Target: 25 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9},
			{Target: 50 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9},
		},
		Traffic: []HostTraffic{{
			AvgLoad:   0.8,
			BurstLoad: 1.4,
			Classes: []TrafficClass{
				{Priority: PC, Share: share, FixedBytes: 32 << 10},
				{Priority: NC, Share: 0.25, FixedBytes: 32 << 10},
				{Priority: BE, Share: 0.75 - share, FixedBytes: 32 << 10},
			},
		}},
	}
}

// TestRunManyDeterministic is the engine's core guarantee: the same
// configs and seeds produce identical Results at 1 worker and at
// GOMAXPROCS workers (and identical to plain sequential Run calls).
func TestRunManyDeterministic(t *testing.T) {
	const n = 4
	cfgs := make([]SimConfig, n)
	for i := range cfgs {
		cfgs[i] = sweepCluster(i)
	}
	seq, err := RunMany(cfgs, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMany(cfgs, ParallelOptions{Workers: runtime.GOMAXPROCS(0) + 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		direct, err := Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("config %d: 1-worker and parallel Results differ", i)
		}
		if !reflect.DeepEqual(seq[i], direct) {
			t.Errorf("config %d: RunMany and direct Run Results differ", i)
		}
	}
}

// TestRunManyOrderAndErrors: results come back in input order, a bad
// config reports the lowest-index error, and good configs still complete.
func TestRunManyOrderAndErrors(t *testing.T) {
	cfgs := []SimConfig{
		sweepCluster(0),
		{Hosts: 1, Duration: time.Millisecond}, // invalid: needs >= 2 hosts
		sweepCluster(1),
		{Hosts: 1, Duration: time.Millisecond}, // invalid too; index 1 must win
	}
	res, err := RunMany(cfgs, ParallelOptions{Workers: 3})
	if err == nil {
		t.Fatal("want error from invalid config")
	}
	if want := "sweep config 1"; !contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
	if res[0] == nil || res[2] == nil {
		t.Error("valid configs did not produce results")
	}
	if res[1] != nil || res[3] != nil {
		t.Error("invalid configs produced results")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConcurrentRun runs two simulations concurrently; under `go test
// -race` this fails loudly if Run touches any shared mutable state.
func TestConcurrentRun(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := Run(sweepCluster(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestRawGoodputRatio: under a deterministic config the unclamped ratio
// must stay within [0, 1]; anything above 1 is an accounting error that
// the clamped GoodputFraction would otherwise hide.
func TestRawGoodputRatio(t *testing.T) {
	res, err := Run(sweepCluster(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.RawGoodputRatio <= 0 || res.RawGoodputRatio > 1.0 {
		t.Errorf("RawGoodputRatio = %v, want in (0, 1]", res.RawGoodputRatio)
	}
	if res.GoodputFraction != res.RawGoodputRatio {
		t.Errorf("clamp applied though raw ratio %v <= 1", res.RawGoodputRatio)
	}
}

// BenchmarkRunManySequential and BenchmarkRunManyParallel time the same
// 8-config sweep at 1 worker and at GOMAXPROCS workers. On a multi-core
// runner the parallel variant must show near-linear speedup (the
// acceptance criterion is >= 2x at 8 configs).
func benchSweepConfigs() []SimConfig {
	cfgs := make([]SimConfig, 8)
	for i := range cfgs {
		cfgs[i] = sweepCluster(i % 4)
		cfgs[i].Seed = int64(i + 1)
	}
	return cfgs
}

func BenchmarkRunManySequential(b *testing.B) {
	cfgs := benchSweepConfigs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMany(cfgs, ParallelOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunManyParallel(b *testing.B) {
	cfgs := benchSweepConfigs()
	b.ReportAllocs()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	for i := 0; i < b.N; i++ {
		if _, err := RunMany(cfgs, ParallelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
