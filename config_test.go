package aequitas

import (
	"strings"
	"testing"
	"time"
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

// TestSenderListedInOwnDsts runs a sender that appears in its own Dsts:
// it draws from the other destinations, and a sender whose only
// destination is itself is refused by name.
func TestSenderListedInOwnDsts(t *testing.T) {
	cfg := SimConfig{Hosts: 3, Duration: 2 * time.Millisecond, Traffic: minimalTraffic()}
	cfg.Traffic[0].Hosts, cfg.Traffic[0].Dsts = []int{0, 1}, []int{1, 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Errorf("no RPC completed (issued %d)", res.Issued)
	}
	cfg.Traffic[0].Hosts, cfg.Traffic[0].Dsts = nil, []int{2}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "host 2") {
		t.Errorf("Run = %v, want an error naming host 2", err)
	}
	// A repeated destination that is no sender weights the draw, as it
	// always did; a repeated sender would draw itself.
	cfg.Traffic[0].Hosts, cfg.Traffic[0].Dsts = []int{0}, []int{1, 1, 2}
	if _, err := Run(cfg); err != nil {
		t.Errorf("Dsts {1,1,2} from host 0: %v", err)
	}
	cfg.Traffic[0].Hosts, cfg.Traffic[0].Dsts = []int{2}, []int{2, 2, 1}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "sender 2") {
		t.Errorf("Run = %v, want an error naming sender 2", err)
	}
}

// FuzzRunConfig drives Run with small configurations built from the fuzz
// input — system index (possibly out of range), signed durations, probe
// ids, class priorities and explicit Hosts/Dsts lists — and requires it
// to return results or an error, never to panic or hang.
func FuzzRunConfig(f *testing.F) {
	// Reproducers: a sender whose only destination is itself; a sender
	// listed in its own Dsts; probe source out of range; priority -1;
	// negative warmup; negative burst period under modulation; negative
	// sample interval with a probe; negative PropDelay and RTOMin; System(9).
	f.Add(uint8(1), uint8(0), uint16(100), int16(0), int16(0), int16(0), int16(0), int16(0), int8(0), int8(1), int8(0), []byte{}, []byte{2})
	f.Add(uint8(1), uint8(0), uint16(100), int16(0), int16(0), int16(0), int16(0), int16(0), int8(0), int8(1), int8(0), []byte{0, 1}, []byte{1, 2})
	f.Add(uint8(2), uint8(1), uint16(200), int16(0), int16(0), int16(0), int16(0), int16(0), int8(4), int8(1), int8(0), []byte{}, []byte{})
	f.Add(uint8(1), uint8(0), uint16(100), int16(0), int16(0), int16(0), int16(0), int16(0), int8(0), int8(1), int8(-1), []byte{}, []byte{})
	f.Add(uint8(1), uint8(0), uint16(100), int16(-10), int16(0), int16(0), int16(0), int16(0), int8(0), int8(1), int8(0), []byte{}, []byte{})
	f.Add(uint8(1), uint8(0), uint16(100), int16(0), int16(0), int16(0), int16(-50), int16(0), int8(0), int8(1), int8(0), []byte{}, []byte{})
	f.Add(uint8(2), uint8(0), uint16(100), int16(0), int16(0), int16(0), int16(0), int16(-5), int8(0), int8(1), int8(0), []byte{}, []byte{})
	f.Add(uint8(1), uint8(1), uint16(200), int16(0), int16(-100), int16(-3), int16(0), int16(0), int8(0), int8(1), int8(0), []byte{}, []byte{})
	f.Add(uint8(10), uint8(0), uint16(100), int16(0), int16(0), int16(0), int16(0), int16(0), int8(0), int8(1), int8(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, sys, hosts uint8, dur uint16, warm, prop, rto, burst, sample int16,
		probeSrc, probeDst, prio int8, srcs, dsts []byte) {
		ids := func(b []byte) []int {
			var out []int
			for _, v := range b[:min(len(b), 6)] {
				out = append(out, int(int8(v))%6)
			}
			return out
		}
		cfg := SimConfig{
			System:      System(int(sys%12) - 1),
			Hosts:       3 + int(hosts%2),
			Seed:        int64(dur),
			Duration:    time.Duration(100+dur%201) * time.Microsecond,
			Warmup:      time.Duration(warm%300) * time.Microsecond,
			PropDelay:   time.Duration(prop) * time.Nanosecond,
			RTOMin:      time.Duration(rto) * 100 * time.Nanosecond,
			BurstPeriod: time.Duration(burst%500) * time.Microsecond,
			SampleEvery: time.Duration(sample%200) * time.Microsecond,
			SLOs:        []SLO{{Target: 25 * time.Microsecond}, {Target: 50 * time.Microsecond}},
			Probes:      []Probe{{Src: int(probeSrc % 6), Dst: int(probeDst % 6), Class: High}},
			Traffic: []HostTraffic{{
				Hosts: ids(srcs), Dsts: ids(dsts),
				AvgLoad: 0.8, BurstLoad: 1.4,
				Classes: []TrafficClass{
					{Priority: Priority(prio % 6), Share: 0.5, FixedBytes: 4 << 10},
					{Priority: BE, Share: 0.5, FixedBytes: 4 << 10},
				},
			}},
		}
		res, err := Run(cfg)
		if (res == nil) == (err == nil) {
			t.Fatalf("Run = %v, %v: want results or an error", res, err)
		}
	})
}
