package aequitas

import (
	"testing"
	"time"
)

// smallCluster builds a moderate all-to-all workload for exercising the
// comparison systems end to end.
func smallCluster(system System, seed int64) SimConfig {
	return SimConfig{
		System:     system,
		Hosts:      6,
		Seed:       seed,
		Duration:   20 * time.Millisecond,
		Warmup:     5 * time.Millisecond,
		QoSWeights: []float64{8, 4, 1},
		SLOs: []SLO{
			{Target: 50 * time.Microsecond, ReferenceBytes: 32 << 10},
			{Target: 100 * time.Microsecond, ReferenceBytes: 32 << 10},
		},
		Traffic: []HostTraffic{{
			AvgLoad:   0.5,
			BurstLoad: 0.9,
			Classes: []TrafficClass{
				{Priority: PC, Share: 0.5, FixedBytes: 16 << 10, Deadline: 250 * time.Microsecond},
				{Priority: NC, Share: 0.3, FixedBytes: 32 << 10, Deadline: 300 * time.Microsecond},
				{Priority: BE, Share: 0.2, FixedBytes: 64 << 10},
			},
		}},
	}
}

func TestBaselineSystemsDeliver(t *testing.T) {
	for _, system := range []System{SystemPFabric, SystemQJump, SystemD3, SystemPDQ, SystemHoma} {
		t.Run(system.String(), func(t *testing.T) {
			res, err := Run(smallCluster(system, 11))
			if err != nil {
				t.Fatal(err)
			}
			if res.Issued == 0 {
				t.Fatal("no RPCs issued")
			}
			frac := float64(res.Completed) / float64(res.Issued)
			// Deadline systems may terminate flows; everyone else should
			// complete nearly everything at 0.5 load.
			min := 0.9
			if system == SystemD3 || system == SystemPDQ {
				min = 0.5
			}
			if frac < min {
				t.Errorf("completed %.2f of issued RPCs (%d/%d)", frac, res.Completed, res.Issued)
			}
			if res.RNLQuantileUS(High, 0.5) <= 0 {
				t.Error("no QoSh latency samples")
			}
			for pr, f := range res.SLOMetBytesFraction {
				if f < 0 || f > 1 {
					t.Errorf("SLO-met fraction for %v = %v", pr, f)
				}
			}
		})
	}
}

// pFabric's defining behaviour: small RPCs beat large RPCs on tail
// latency because packets carry remaining-size priority.
func TestPFabricFavorsSmallRPCs(t *testing.T) {
	cfg := SimConfig{
		System:   SystemPFabric,
		Hosts:    4,
		Seed:     3,
		Duration: 20 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Traffic: []HostTraffic{{
			AvgLoad: 0.9,
			Classes: []TrafficClass{
				// Small RPCs marked BE, large marked PC: pFabric ignores
				// priority and favours size.
				{Priority: BE, Share: 0.3, FixedBytes: 2 << 10},
				{Priority: PC, Share: 0.7, FixedBytes: 256 << 10},
			},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := res.RNLPriority[BE]
	large := res.RNLPriority[PC]
	if small.N == 0 || large.N == 0 {
		t.Fatal("missing samples")
	}
	// Normalised per byte, small RPCs should be served far better.
	smallPerKB := small.P99US / 2
	largePerKB := large.P99US / 256
	if smallPerKB > largePerKB*2 {
		t.Errorf("pFabric did not favour small RPCs: small %.2fus/KB large %.2fus/KB", smallPerKB, largePerKB)
	}
}

// D3 and PDQ terminate RPCs whose deadlines become infeasible under
// overload, sacrificing utilisation.
func TestDeadlineSystemsTerminate(t *testing.T) {
	for _, system := range []System{SystemD3, SystemPDQ} {
		t.Run(system.String(), func(t *testing.T) {
			cfg := SimConfig{
				System:   system,
				Hosts:    4,
				Seed:     5,
				Duration: 20 * time.Millisecond,
				Warmup:   5 * time.Millisecond,
				Traffic: []HostTraffic{{
					Hosts:   []int{0, 1, 2},
					Dsts:    []int{3},
					AvgLoad: 0.8, // 2.4x overload at the shared downlink
					Classes: []TrafficClass{
						{Priority: PC, Share: 1, FixedBytes: 64 << 10, Deadline: 100 * time.Microsecond},
					},
				}},
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Terminated == 0 {
				t.Error("no flows terminated under infeasible deadlines")
			}
			if res.Completed == 0 {
				t.Error("nothing completed either")
			}
		})
	}
}

// QJump rate-limits the high class: its latency stays tight even under
// fan-in, at the cost of throughput.
func TestQJumpBoundsHighClassLatency(t *testing.T) {
	cfg := SimConfig{
		System:   SystemQJump,
		Hosts:    4,
		Seed:     6,
		Duration: 20 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Traffic: []HostTraffic{{
			Hosts:   []int{0, 1, 2},
			Dsts:    []int{3},
			AvgLoad: 0.9,
			Classes: []TrafficClass{
				{Priority: PC, Share: 0.1, FixedBytes: 4 << 10},
				{Priority: BE, Share: 0.9, FixedBytes: 64 << 10},
			},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hi := res.RNLQuantileUS(High, 0.99)
	lo := res.RNLQuantileUS(Low, 0.99)
	if hi <= 0 || lo <= 0 {
		t.Fatal("missing samples")
	}
	if hi > lo {
		t.Errorf("QJump high class p99 %.1fus worse than best-effort %.1fus", hi, lo)
	}
}

// Homa under fan-in: receiver-driven grants keep the fabric queue short
// and small messages finish fast. The aggregate fan-in load stays below
// the downlink capacity — under *persistent* overload SRPT would
// (correctly) starve the large class outright.
func TestHomaFanIn(t *testing.T) {
	cfg := SimConfig{
		System:   SystemHoma,
		Hosts:    5,
		Seed:     8,
		Duration: 20 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
		Traffic: []HostTraffic{{
			Hosts:   []int{0, 1, 2, 3},
			Dsts:    []int{4},
			AvgLoad: 0.2, // 0.8 aggregate at the shared downlink
			Classes: []TrafficClass{
				{Priority: PC, Share: 0.3, FixedBytes: 4 << 10},
				{Priority: NC, Share: 0.7, FixedBytes: 128 << 10},
			},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Completed)/float64(res.Issued) < 0.9 {
		t.Fatalf("completed %d of %d", res.Completed, res.Issued)
	}
	small := res.RNLPriority[PC].P99US
	large := res.RNLPriority[NC].P99US
	if small >= large {
		t.Errorf("Homa SRPT did not favour small messages: %0.1fus vs %0.1fus", small, large)
	}
}
