package aequitas

import (
	"testing"
	"time"

	"aequitas/internal/scenario"
	"aequitas/internal/wfq"
)

func minimalTraffic() []HostTraffic {
	return []HostTraffic{{
		AvgLoad: 0.5,
		Classes: []TrafficClass{{Priority: PC, Share: 1, FixedBytes: 1000}},
	}}
}

func TestConfigDefaults(t *testing.T) {
	cfg := SimConfig{Hosts: 4, Duration: 10 * time.Millisecond, Traffic: minimalTraffic()}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.LinkRate != 100e9 {
		t.Errorf("LinkRate = %d", cfg.LinkRate)
	}
	if cfg.Warmup != 2*time.Millisecond {
		t.Errorf("Warmup = %v", cfg.Warmup)
	}
	if len(cfg.QoSWeights) != 3 || cfg.QoSWeights[0] != 8 {
		t.Errorf("QoSWeights = %v", cfg.QoSWeights)
	}
	if cfg.PerClassBufferBytes != 2<<20 {
		t.Errorf("buffer = %d", cfg.PerClassBufferBytes)
	}
	if cfg.Admission.Alpha != 0.01 || cfg.Admission.Beta != 0.01 || cfg.Admission.Floor != 0.01 {
		t.Errorf("admission defaults = %+v", cfg.Admission)
	}
	if cfg.RTOMin != 100*time.Microsecond {
		t.Errorf("transport default: RTOMin = %v", cfg.RTOMin)
	}
}

func TestConfigUnlimitedBuffer(t *testing.T) {
	cfg := SimConfig{Hosts: 4, Duration: time.Millisecond, Traffic: minimalTraffic(), PerClassBufferBytes: -1}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.PerClassBufferBytes != 0 {
		t.Errorf("negative buffer should mean unlimited, got %d", cfg.PerClassBufferBytes)
	}
}

func TestConfigRejectsTooManySLOs(t *testing.T) {
	cfg := SimConfig{
		Hosts: 4, Duration: time.Millisecond, Traffic: minimalTraffic(),
		QoSWeights: []float64{4, 1},
		SLOs: []SLO{
			{Target: time.Microsecond},
			{Target: time.Microsecond}, // no SLO allowed for the lowest class
		},
	}
	if err := cfg.applyDefaults(); err == nil {
		t.Error("SLO on the lowest class accepted")
	}
}

func TestConfigRejectsBadWeights(t *testing.T) {
	cfg := SimConfig{
		Hosts: 4, Duration: time.Millisecond, Traffic: minimalTraffic(),
		QoSWeights: []float64{1, 4}, // increasing: invalid
	}
	if err := cfg.applyDefaults(); err == nil {
		t.Error("increasing weights accepted")
	}
}

func TestSchedFactoryMapping(t *testing.T) {
	base := SimConfig{Hosts: 4, Duration: time.Millisecond, Traffic: minimalTraffic()}
	cases := []struct {
		system System
		want   string
	}{
		{SystemBaseline, "*wfq.WFQ"},
		{SystemAequitas, "*wfq.WFQ"},
		{SystemSPQ, "*wfq.SPQ"},
		{SystemQJump, "*wfq.SPQ"},
		{SystemDWRR, "*wfq.DWRR"},
		{SystemPFabric, "*wfq.PriorityQueue"},
		{SystemHoma, "*wfq.PriorityQueue"},
		{SystemD3, "*wfq.FIFO"},
		{SystemPDQ, "*wfq.FIFO"},
	}
	for _, c := range cases {
		cfg := base
		cfg.System = c.system
		if c.system == SystemAequitas {
			cfg.SLOs = []SLO{{Target: time.Microsecond}}
		}
		if err := cfg.applyDefaults(); err != nil {
			t.Fatal(err)
		}
		b, err := scenario.Lookup(cfg.System.String())
		if err != nil {
			t.Fatal(err)
		}
		s := b.Scheduler(cfg.QoSWeights, cfg.PerClassBufferBytes)()
		if got := typeName(s); got != c.want {
			t.Errorf("%v scheduler = %s, want %s", c.system, got, c.want)
		}
	}
}

func typeName(s wfq.Scheduler) string {
	switch s.(type) {
	case *wfq.WFQ:
		return "*wfq.WFQ"
	case *wfq.SPQ:
		return "*wfq.SPQ"
	case *wfq.DWRR:
		return "*wfq.DWRR"
	case *wfq.PriorityQueue:
		return "*wfq.PriorityQueue"
	case *wfq.FIFO:
		return "*wfq.FIFO"
	default:
		return "unknown"
	}
}

// Terminated RPCs must count as SLO misses: the D3 run's SLO-met
// fraction must be below the fraction of traffic that survived.
func TestSLOMetCountsTerminatedAsMisses(t *testing.T) {
	cfg := SimConfig{
		System:   SystemD3,
		Hosts:    4,
		Seed:     5,
		Duration: 15 * time.Millisecond,
		Warmup:   3 * time.Millisecond,
		SLOs: []SLO{
			{Target: 500 * time.Microsecond, Percentile: 99},
			{Target: time.Millisecond, Percentile: 99},
		},
		Traffic: []HostTraffic{{
			Hosts:   []int{0, 1, 2},
			Dsts:    []int{3},
			AvgLoad: 0.8,
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
		t.Fatal("setup: no terminations")
	}
	// With generous latency targets, survivors all meet the SLO, so the
	// met fraction ≈ survivor fraction < 1.
	frac := res.SLOMetCountFraction[PC]
	survivors := float64(res.Completed) / float64(res.Issued)
	if frac > survivors+0.05 {
		t.Errorf("SLO-met fraction %.2f exceeds survivor fraction %.2f: terminated RPCs not counted as misses", frac, survivors)
	}
	if frac >= 0.999 {
		t.Errorf("SLO-met fraction %.2f ignores %d terminations", frac, res.Terminated)
	}
}

// The input mix reported must reflect requested classes even when
// admission downgrades heavily.
func TestInputMixReflectsRequests(t *testing.T) {
	cfg := threeNodeOverload(SystemAequitas, 20, 4)
	cfg.Duration = 30 * time.Millisecond
	cfg.Warmup = 10 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputMix[0] < 0.6 || res.InputMix[0] > 0.8 {
		t.Errorf("input QoSh share %.2f, offered 0.7", res.InputMix[0])
	}
	if res.AdmittedMix[0] >= res.InputMix[0] {
		t.Errorf("admitted %v not below input %v under overload", res.AdmittedMix[0], res.InputMix[0])
	}
	// Everything lands somewhere: admitted mix sums to ~1.
	var sum float64
	for _, x := range res.AdmittedMix {
		sum += x
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("admitted mix sums to %v", sum)
	}
}

func TestGoodputFractionBounds(t *testing.T) {
	cfg := SimConfig{
		Hosts:    4,
		Seed:     2,
		Duration: 10 * time.Millisecond,
		Traffic: []HostTraffic{{
			AvgLoad: 0.3,
			Classes: []TrafficClass{{Priority: PC, Share: 1, FixedBytes: 16 << 10}},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodputFraction <= 0.8 || res.GoodputFraction > 1 {
		t.Errorf("GoodputFraction = %v at light load", res.GoodputFraction)
	}
	if res.AvgDownlinkUtilization <= 0 || res.AvgDownlinkUtilization > 1 {
		t.Errorf("utilization = %v", res.AvgDownlinkUtilization)
	}
}
