package aequitas_test

import (
	"runtime"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/figures"
)

// BenchmarkRun measures end-to-end simulation cost per scenario-engine
// composition: the uniform all-to-all default and the incast pattern. On
// top of the standard ns/op and allocs/op it reports simulator throughput
// (events/sec, packets/sec) and the per-completed-RPC cost (ns/RPC) —
// the quantities the repository benchmark's sim workloads report end to end.
// Run with: go test -bench=BenchmarkRun -benchmem .
func BenchmarkRun(b *testing.B) {
	run := func(b *testing.B, mod func(*aequitas.SimConfig)) {
		b.ReportAllocs()
		var events, packets, rpcs int64
		for i := 0; i < b.N; i++ {
			o := figures.Options{Nodes: 8, Dur: 5 * time.Millisecond, Seed: int64(i + 1)}
			cfg := figures.Cluster(o, aequitas.SystemAequitas, [3]float64{0.5, 0.3, 0.2})
			if mod != nil {
				mod(&cfg)
			}
			res, err := aequitas.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			events += res.EventsProcessed
			packets += res.PacketsDelivered
			rpcs += res.Completed
		}
		secs := b.Elapsed().Seconds()
		if secs > 0 {
			b.ReportMetric(float64(events)/secs, "events/s")
			b.ReportMetric(float64(packets)/secs, "packets/s")
		}
		if rpcs > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rpcs), "ns/RPC")
		}
	}
	b.Run("uniform", func(b *testing.B) { run(b, nil) })
	b.Run("incast", func(b *testing.B) {
		run(b, func(cfg *aequitas.SimConfig) { cfg.Traffic[0].Pattern = aequitas.IncastPattern(0) })
	})
}

// TestRunAllocsPerRPC is the allocation budget of a simulated RPC end to
// end, on the benchmark's sim-small-rpc shape (8 hosts, one-MTU RPCs):
// at most 0.05 objects per completed RPC. It is the count a 4 ms run
// makes beyond a 2 ms one per RPC the extra 2 ms complete, because a run
// of either length also builds its fabric and grows its free lists,
// packet pool and queues to the peak of RPCs in flight, about 9 000
// objects that do not depend on how long it runs.
func TestRunAllocsPerRPC(t *testing.T) {
	run := func(d time.Duration) (mallocs uint64, completed int64) {
		cfg := aequitas.SimConfig{
			System: aequitas.SystemAequitas, Hosts: 8, Seed: 1, Duration: d,
			SLOs: []aequitas.SLO{
				{Target: 15 * time.Microsecond, ReferenceBytes: 1436, Percentile: 99.9},
				{Target: 25 * time.Microsecond, ReferenceBytes: 1436, Percentile: 99.9},
			},
			Traffic: []aequitas.HostTraffic{{AvgLoad: 0.8, BurstLoad: 1.4, Classes: []aequitas.TrafficClass{
				{Priority: aequitas.PC, Share: 0.5, FixedBytes: 1436},
				{Priority: aequitas.NC, Share: 0.3, FixedBytes: 1436},
				{Priority: aequitas.BE, Share: 0.2, FixedBytes: 1436},
			}}},
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := aequitas.Run(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.Mallocs - m0.Mallocs, res.Completed
	}
	short, nShort := run(2 * time.Millisecond)
	long, nLong := run(4 * time.Millisecond)
	if per := float64(long-short) / float64(nLong-nShort); per > 0.05 {
		t.Errorf("%.3f allocations per RPC (%d objects for %d RPCs, %d for %d), want at most 0.05",
			per, short, nShort, long, nLong)
	}
}
