// Benchmark harness: one testing.B benchmark per table/figure in the
// paper's evaluation. Each benchmark runs a reduced-scale version of the
// experiment (so the whole suite completes in minutes) and reports the
// figure's headline quantities as custom benchmark metrics; cmd/figures
// regenerates the full tables.
//
// Run with: go test -bench=Fig -benchmem .
package aequitas

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"aequitas/internal/calculus"
	"aequitas/internal/fleet"
	"aequitas/internal/workload"
)

// benchCluster is the reduced-scale all-to-all cluster configuration
// shared by the cluster benchmarks: 8 hosts standing in for the paper's
// 33-node experiments so the suite completes in minutes.
func benchCluster(system System, mix [3]float64, seed int64) SimConfig {
	return SimConfig{
		System:     system,
		Hosts:      8,
		Seed:       seed,
		Duration:   15 * time.Millisecond,
		QoSWeights: []float64{8, 4, 1},
		SLOs: []SLO{
			{Target: 25 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9},
			{Target: 50 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9},
		},
		Traffic: []HostTraffic{{
			AvgLoad:   0.8,
			BurstLoad: 1.4,
			Classes: []TrafficClass{
				{Priority: PC, Share: mix[0], FixedBytes: 32 << 10},
				{Priority: NC, Share: mix[1], FixedBytes: 32 << 10},
				{Priority: BE, Share: mix[2], FixedBytes: 32 << 10},
			},
		}},
	}
}

func mustRun(b *testing.B, cfg SimConfig) *Results {
	b.Helper()
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig01SizeDistributions samples the production-shaped RPC size
// CDFs (Figure 1).
func BenchmarkFig01SizeDistributions(b *testing.B) {
	dists := []workload.SizeDist{
		workload.ProductionPC(), workload.ProductionNC(), workload.ProductionBE(),
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += dists[i%3].Sample(rng)
	}
	_ = sink
}

// BenchmarkFig03OverloadEpisode regenerates the congestion-episode series
// (Figure 3).
func BenchmarkFig03OverloadEpisode(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		load, lat := fleet.OverloadEpisode(200, 8)
		peak = lat[argmax(load)]
	}
	b.ReportMetric(peak, "latency_peak_x")
}

// BenchmarkFig04Misalignment measures coarse-marking misalignment
// (Figure 4).
func BenchmarkFig04Misalignment(b *testing.B) {
	var pcWrong float64
	for i := 0; i < b.N; i++ {
		c, err := fleet.NewCluster(fleet.ClusterConfig{Apps: 200, Seed: int64(i + 1), UpgradeBias: 0.35})
		if err != nil {
			b.Fatal(err)
		}
		pcWrong = c.CoarseAlignment().Misalignment(PC)
	}
	b.ReportMetric(100*pcWrong, "PC_misaligned_%")
}

// BenchmarkFig05RaceToTop runs the marking-drift process (Figure 5).
func BenchmarkFig05RaceToTop(b *testing.B) {
	var drift float64
	for i := 0; i < b.N; i++ {
		c, err := fleet.NewCluster(fleet.ClusterConfig{Apps: 200, Seed: int64(i + 1), UpgradeBias: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		traj := c.RaceToTheTop(20, 0.25, 0.4)
		drift = traj[len(traj)-1][0] - traj[0][0]
	}
	b.ReportMetric(100*drift, "QoSh_share_drift_%")
}

// BenchmarkFig08TheoryDelay evaluates the closed-form 2-QoS delay bounds
// over the full share sweep (Figure 8).
func BenchmarkFig08TheoryDelay(b *testing.B) {
	p := calculus.TwoQoS{Phi: 4, Rho: 1.2, Mu: 0.8}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		x := float64(i%999+1) / 1000
		sink += p.DelayHigh(x) + p.DelayLow(x)
	}
	_ = sink
	b.ReportMetric(p.InversionPoint(), "inversion_share")
}

// BenchmarkFig09ThreeQoSDelay runs the fluid 3-QoS worst-case sweep
// (Figure 9).
func BenchmarkFig09ThreeQoSDelay(b *testing.B) {
	mixAt := func(x float64) []float64 {
		rest := 1 - x
		return []float64{x, rest * 2 / 3, rest / 3}
	}
	var boundary8, boundary50 float64
	for i := 0; i < b.N; i++ {
		var err error
		boundary8, err = calculus.AdmissibleBoundary([]float64{8, 4, 1}, mixAt, 1.4, 0.8, 128)
		if err != nil {
			b.Fatal(err)
		}
		boundary50, err = calculus.AdmissibleBoundary([]float64{50, 4, 1}, mixAt, 1.4, 0.8, 128)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*boundary8, "boundary_8:4:1_%")
	b.ReportMetric(100*boundary50, "boundary_50:4:1_%")
}

// BenchmarkFig10SimVsTheory validates the packet simulator against the
// closed form at one representative share (Figure 10).
func BenchmarkFig10SimVsTheory(b *testing.B) {
	theory := calculus.TwoQoS{Phi: 4, Rho: 1.2, Mu: 0.8}
	var gap float64
	for i := 0; i < b.N; i++ {
		cfg := SimConfig{
			System: SystemBaseline, Hosts: 3, Seed: int64(i + 7),
			Duration: 25 * time.Millisecond, Warmup: 5 * time.Millisecond,
			QoSWeights: []float64{4, 1}, PerClassBufferBytes: -1,
			DisableCC: true, FixedWindow: 512, BurstPeriod: time.Millisecond,
			RTOMin: 500 * time.Millisecond,
			Traffic: []HostTraffic{{
				Hosts: []int{0, 1}, Dsts: []int{2},
				AvgLoad: 0.4, BurstLoad: 0.6, Arrival: ArrivalPeriodic,
				Classes: []TrafficClass{
					{Priority: PC, Share: 0.5, FixedBytes: 1436},
					{Priority: NC, Share: 0.5, FixedBytes: 1436},
				},
			}},
		}
		res := mustRun(b, cfg)
		sim := res.RNLRun[Medium].MaxUS / 1000
		gap = sim - theory.DelayLow(0.5)
	}
	b.ReportMetric(gap, "sim_minus_theory")
}

// BenchmarkFig11SLOCompliance checks that achieved tail RNL tracks the
// SLO knob in the 3-node overload (Figure 11).
func BenchmarkFig11SLOCompliance(b *testing.B) {
	var achieved, share float64
	for i := 0; i < b.N; i++ {
		cfg := SimConfig{
			System: SystemAequitas, Hosts: 3, Seed: int64(i + 1),
			Duration: 40 * time.Millisecond, Warmup: 15 * time.Millisecond,
			QoSWeights: []float64{4, 1},
			SLOs:       []SLO{{Target: 25 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9}},
			Traffic: []HostTraffic{{
				Hosts: []int{0, 1}, Dsts: []int{2},
				AvgLoad: 1.0, Arrival: ArrivalPeriodic,
				Classes: []TrafficClass{
					{Priority: PC, Share: 0.7, FixedBytes: 32 << 10},
					{Priority: BE, Share: 0.3, FixedBytes: 32 << 10},
				},
			}},
		}
		res := mustRun(b, cfg)
		achieved = res.RNLQuantileUS(High, 0.999)
		share = 100 * res.AdmittedMix[0]
	}
	b.ReportMetric(achieved, "QoSh_p999_us")
	b.ReportMetric(share, "admitted_share_%")
}

// BenchmarkFig12ClusterSLO compares cluster tail RNL with and without
// Aequitas (Figure 12).
func BenchmarkFig12ClusterSLO(b *testing.B) {
	var base, aeq float64
	for i := 0; i < b.N; i++ {
		rb := mustRun(b, benchCluster(SystemBaseline, [3]float64{0.6, 0.3, 0.1}, int64(i+1)))
		ra := mustRun(b, benchCluster(SystemAequitas, [3]float64{0.6, 0.3, 0.1}, int64(i+1)))
		base = rb.RNLQuantileUS(High, 0.999)
		aeq = ra.RNLQuantileUS(High, 0.999)
	}
	b.ReportMetric(base, "baseline_QoSh_p999_us")
	b.ReportMetric(aeq, "aequitas_QoSh_p999_us")
}

// BenchmarkFig13OutstandingRPCs samples outstanding RPCs per switch port
// (Figure 13).
func BenchmarkFig13OutstandingRPCs(b *testing.B) {
	var hiP99 float64
	for i := 0; i < b.N; i++ {
		cfg := benchCluster(SystemAequitas, [3]float64{0.6, 0.3, 0.1}, int64(i+1))
		cfg.TrackOutstanding = true
		res := mustRun(b, cfg)
		for _, p := range res.OutstandingHighMed {
			if p.Y >= 0.99 {
				hiP99 = p.X
				break
			}
		}
	}
	b.ReportMetric(hiP99, "outstanding_himed_p99")
}

// BenchmarkFig14AdmissibleSweep probes the baseline latency-vs-share
// profile at one point past the knee (Figure 14).
func BenchmarkFig14AdmissibleSweep(b *testing.B) {
	var tail float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, benchCluster(SystemBaseline, [3]float64{0.55, 0.25, 0.2}, int64(i+1)))
		tail = res.RNLQuantileUS(High, 0.999)
	}
	b.ReportMetric(tail, "QoSh_p999_at_55pct_us")
}

// BenchmarkFig15QoSMixConvergence verifies the admitted mix is set by the
// SLOs, not the input mix (Figure 15).
func BenchmarkFig15QoSMixConvergence(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r1 := mustRun(b, benchCluster(SystemAequitas, [3]float64{0.6, 0.3, 0.1}, int64(i+1)))
		r2 := mustRun(b, benchCluster(SystemAequitas, [3]float64{0.3, 0.3, 0.4}, int64(i+1)))
		spread = 100 * abs(r1.AdmittedMix[0]-r2.AdmittedMix[0])
	}
	b.ReportMetric(spread, "admitted_share_spread_pp")
}

// BenchmarkFig16Burstiness measures admitted share at two burst loads
// (Figure 16: share ∝ 1/ρ).
func BenchmarkFig16Burstiness(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		lo := benchCluster(SystemAequitas, [3]float64{0.6, 0.3, 0.1}, int64(i+1))
		lo.Traffic[0].BurstLoad = 1.4
		hi := benchCluster(SystemAequitas, [3]float64{0.6, 0.3, 0.1}, int64(i+1))
		hi.Traffic[0].BurstLoad = 2.2
		rl := mustRun(b, lo)
		rh := mustRun(b, hi)
		if rh.AdmittedMix[0] > 0 {
			ratio = rl.AdmittedMix[0] / rh.AdmittedMix[0]
		}
	}
	b.ReportMetric(ratio, "share_ratio_1.4_vs_2.2")
}

// benchFairness is the Figure 17/18 configuration at benchmark scale.
func benchFairness(shareA, shareB, alpha, beta float64, seed int64) SimConfig {
	return SimConfig{
		System: SystemAequitas, Hosts: 3, Seed: seed,
		Duration: 120 * time.Millisecond, Warmup: 20 * time.Millisecond,
		QoSWeights: []float64{4, 1},
		SLOs:       []SLO{{Target: 15 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9}},
		Admission:  AdmissionParams{Alpha: alpha, Beta: beta},
		Traffic: []HostTraffic{
			{Hosts: []int{0}, Dsts: []int{2}, AvgLoad: 1, Arrival: ArrivalPeriodic,
				Classes: []TrafficClass{
					{Priority: PC, Share: shareA, FixedBytes: 32 << 10},
					{Priority: BE, Share: 1 - shareA, FixedBytes: 32 << 10},
				}},
			{Hosts: []int{1}, Dsts: []int{2}, AvgLoad: 1, Arrival: ArrivalPeriodic,
				Classes: []TrafficClass{
					{Priority: PC, Share: shareB, FixedBytes: 32 << 10},
					{Priority: BE, Share: 1 - shareB, FixedBytes: 32 << 10},
				}},
		},
		Probes: []Probe{
			{Src: 0, Dst: 2, Class: High},
			{Src: 1, Dst: 2, Class: High},
		},
		SampleEvery: time.Millisecond,
	}
}

// BenchmarkFig17Fairness measures the two channels' admit probabilities
// (Figure 17).
func BenchmarkFig17Fairness(b *testing.B) {
	var pA, pB float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, benchFairness(0.4, 0.8, 0.05, 0.01, int64(i+1)))
		pA = res.Probes[0].AdmitProbability.MeanAfter(0.06)
		pB = res.Probes[1].AdmitProbability.MeanAfter(0.06)
	}
	b.ReportMetric(pA, "p_admit_A")
	b.ReportMetric(pB, "p_admit_B")
}

// BenchmarkFig18MaxMinFairness: the in-quota channel keeps a high admit
// probability (Figure 18).
func BenchmarkFig18MaxMinFairness(b *testing.B) {
	var pInQuota float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, benchFairness(0.1, 0.8, 0.05, 0.01, int64(i+1)))
		pInQuota = res.Probes[0].AdmitProbability.MeanAfter(0.06)
	}
	b.ReportMetric(pInQuota, "p_admit_inquota")
}

// BenchmarkFig19SPQComparison: SPQ vs Aequitas at a high claimed QoSh
// share (Figure 19).
func BenchmarkFig19SPQComparison(b *testing.B) {
	var spqM, aeqM float64
	for i := 0; i < b.N; i++ {
		mix := [3]float64{0.7, 0.2, 0.1}
		rs := mustRun(b, benchCluster(SystemSPQ, mix, int64(i+1)))
		ra := mustRun(b, benchCluster(SystemAequitas, mix, int64(i+1)))
		spqM = rs.RNLQuantileUS(Medium, 0.999)
		aeqM = ra.RNLQuantileUS(Medium, 0.999)
	}
	b.ReportMetric(spqM, "SPQ_QoSm_p999_us")
	b.ReportMetric(aeqM, "AEQ_QoSm_p999_us")
}

// BenchmarkFig20MixedSizes: normalised SLOs with mixed 32/64 KB RPCs
// (Figure 20).
func BenchmarkFig20MixedSizes(b *testing.B) {
	var inSLO float64
	for i := 0; i < b.N; i++ {
		cfg := benchCluster(SystemAequitas, [3]float64{0.6, 0.3, 0.1}, int64(i+1))
		for j := range cfg.Traffic[0].Classes {
			cfg.Traffic[0].Classes[j].FixedBytes = 0
			cfg.Traffic[0].Classes[j].Size = SizeChoice([]int64{32 << 10, 64 << 10}, []float64{1, 1})
		}
		res := mustRun(b, cfg)
		inSLO = 100 * res.SLOMetRunBytesFraction[High]
	}
	b.ReportMetric(inSLO, "QoSh_in_SLO_%")
}

// BenchmarkFig21LargeScale: production sizes under extreme burst
// (Figure 21).
func BenchmarkFig21LargeScale(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		mk := func(system System) SimConfig {
			return SimConfig{
				System: system, Hosts: 10, Seed: int64(i + 1),
				Duration:   15 * time.Millisecond,
				QoSWeights: []float64{8, 4, 1},
				SLOs: []SLO{
					{Target: 20 * time.Microsecond, Percentile: 99.9},
					{Target: 40 * time.Microsecond, Percentile: 99.9},
				},
				BurstPeriod: 200 * time.Microsecond,
				Traffic: []HostTraffic{{
					AvgLoad: 0.8, BurstLoad: 2.0,
					Classes: []TrafficClass{
						{Priority: PC, Share: 0.6, Size: ProductionPCSizes()},
						{Priority: NC, Share: 0.3, Size: ProductionNCSizes()},
						{Priority: BE, Share: 0.1, Size: ProductionBESizes()},
					},
				}},
			}
		}
		rb := mustRun(b, mk(SystemBaseline))
		ra := mustRun(b, mk(SystemAequitas))
		if t := ra.RNLQuantileUS(High, 0.999); t > 0 {
			improvement = rb.RNLQuantileUS(High, 0.999) / t
		}
	}
	b.ReportMetric(improvement, "QoSh_tail_improvement_x")
}

// BenchmarkFig22RelatedWork runs the six-system comparison at benchmark
// scale (Figure 22).
func BenchmarkFig22RelatedWork(b *testing.B) {
	systems := []System{SystemAequitas, SystemPFabric, SystemQJump, SystemD3, SystemPDQ, SystemHoma}
	metrics := make([]float64, len(systems))
	for i := 0; i < b.N; i++ {
		for si, system := range systems {
			cfg := SimConfig{
				System: system, Hosts: 6, Seed: int64(i + 1),
				Duration:   10 * time.Millisecond,
				QoSWeights: []float64{8, 4, 1},
				SLOs: []SLO{
					{Target: 20 * time.Microsecond, Percentile: 99.9},
					{Target: 40 * time.Microsecond, Percentile: 99.9},
				},
				Traffic: []HostTraffic{{
					AvgLoad: 0.8, BurstLoad: 1.4,
					Classes: []TrafficClass{
						{Priority: PC, Share: 0.5, Size: ProductionPCSizes(), Deadline: 250 * time.Microsecond},
						{Priority: NC, Share: 0.3, Size: ProductionNCSizes(), Deadline: 300 * time.Microsecond},
						{Priority: BE, Share: 0.2, Size: ProductionBESizes()},
					},
				}},
			}
			res := mustRun(b, cfg)
			metrics[si] = 100 * res.SLOMetBytesFraction[PC]
		}
	}
	for si, system := range systems {
		b.ReportMetric(metrics[si], system.String()+"_PC_in_SLO_%")
	}
}

// BenchmarkFig23Testbed reproduces the 20-node testbed mix convergence
// (Figure 23) at reduced scale.
func BenchmarkFig23Testbed(b *testing.B) {
	var admitted float64
	for i := 0; i < b.N; i++ {
		cfg := benchCluster(SystemAequitas, [3]float64{0.5, 0.35, 0.15}, int64(i+1))
		cfg.Hosts = 10
		res := mustRun(b, cfg)
		admitted = 100 * res.AdmittedMix[0]
	}
	b.ReportMetric(admitted, "admitted_QoSh_share_%")
}

// BenchmarkFig24Production runs the 50-cluster Phase-1 deployment model
// (Figure 24).
func BenchmarkFig24Production(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for seed := int64(0); seed < 50; seed++ {
			c, err := fleet.NewCluster(fleet.ClusterConfig{Apps: 80, Seed: seed + int64(i), UpgradeBias: 0.35})
			if err != nil {
				b.Fatal(err)
			}
			sum += c.RNLImprovement([3]float64{1, 1.25, 1.8})
		}
		mean = 100 * sum / 50
	}
	b.ReportMetric(mean, "mean_99p_RNL_change_%")
}

// BenchmarkFigC_BetaSensitivity reruns Figure 18 with the appendix's
// smaller beta (Figures 28/29).
func BenchmarkFigC_BetaSensitivity(b *testing.B) {
	var pSmallBeta float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, benchFairness(0.1, 0.8, 0.05, 0.0015, int64(i+1)))
		pSmallBeta = res.Probes[0].AdmitProbability.MeanAfter(0.06)
	}
	b.ReportMetric(pSmallBeta, "p_admit_inquota_beta0.0015")
}

// BenchmarkGuaranteedAdmission evaluates the §5.2 bound.
func BenchmarkGuaranteedAdmission(b *testing.B) {
	var bound float64
	for i := 0; i < b.N; i++ {
		bound = GuaranteedShare([]float64{8, 4, 1}, 0, 0.8, 1.4)
	}
	b.ReportMetric(100*bound, "guaranteed_QoSh_share_%")
}

// Ablation benches (DESIGN.md §4): each removes one mechanism from
// Algorithm 1 on the 3-node overload and reports the resulting tail.

func benchAblation(b *testing.B, mod func(*SimConfig)) (tailUS, dropped float64) {
	var res *Results
	for i := 0; i < b.N; i++ {
		cfg := SimConfig{
			System: SystemAequitas, Hosts: 3, Seed: int64(i + 1),
			Duration: 40 * time.Millisecond, Warmup: 15 * time.Millisecond,
			QoSWeights: []float64{4, 1},
			SLOs:       []SLO{{Target: 25 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9}},
			Traffic: []HostTraffic{{
				Hosts: []int{0, 1}, Dsts: []int{2},
				AvgLoad: 1.0, Arrival: ArrivalPeriodic,
				Classes: []TrafficClass{
					{Priority: PC, Share: 0.7, FixedBytes: 32 << 10},
					{Priority: BE, Share: 0.3, FixedBytes: 32 << 10},
				},
			}},
		}
		mod(&cfg)
		res = mustRun(b, cfg)
	}
	return res.RNLQuantileUS(High, 0.999), float64(res.Dropped)
}

func BenchmarkAblationNoIncrementWindow(b *testing.B) {
	tail, _ := benchAblation(b, func(c *SimConfig) { c.Admission.NoIncrementWindow = true })
	b.ReportMetric(tail, "QoSh_p999_us")
}

func BenchmarkAblationNoSizeScaledMD(b *testing.B) {
	tail, _ := benchAblation(b, func(c *SimConfig) { c.Admission.NoSizeScaledMD = true })
	b.ReportMetric(tail, "QoSh_p999_us")
}

func BenchmarkAblationHighFloor(b *testing.B) {
	tail, _ := benchAblation(b, func(c *SimConfig) { c.Admission.Floor = 0.4 })
	b.ReportMetric(tail, "QoSh_p999_us")
}

func BenchmarkAblationDropNotDowngrade(b *testing.B) {
	tail, dropped := benchAblation(b, func(c *SimConfig) { c.Admission.DropInsteadOfDowngrade = true })
	b.ReportMetric(tail, "QoSh_p999_us")
	b.ReportMetric(dropped, "rpcs_dropped")
}

// BenchmarkRun measures end-to-end simulation cost per scenario-engine
// composition: the uniform all-to-all default and the incast pattern. On
// top of the standard ns/op and allocs/op it reports simulator throughput
// (events/sec, packets/sec) and the per-completed-RPC cost (ns/RPC) —
// the quantities the repository benchmark's sim workloads report end to end.
// Run with: go test -bench=BenchmarkRun -benchmem .
func BenchmarkRun(b *testing.B) {
	base := func() SimConfig {
		cfg := benchCluster(SystemAequitas, [3]float64{0.5, 0.3, 0.2}, 1)
		cfg.Duration = 5 * time.Millisecond
		return cfg
	}
	run := func(b *testing.B, mod func(*SimConfig)) {
		b.ReportAllocs()
		var events, packets, rpcs int64
		for i := 0; i < b.N; i++ {
			cfg := base()
			cfg.Seed = int64(i + 1)
			if mod != nil {
				mod(&cfg)
			}
			res := mustRun(b, cfg)
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
		run(b, func(cfg *SimConfig) { cfg.Traffic[0].Pattern = IncastPattern(0) })
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
		cfg := SimConfig{
			System: SystemAequitas, Hosts: 8, Seed: 1, Duration: d,
			SLOs: []SLO{
				{Target: 15 * time.Microsecond, ReferenceBytes: 1436, Percentile: 99.9},
				{Target: 25 * time.Microsecond, ReferenceBytes: 1436, Percentile: 99.9},
			},
			Traffic: []HostTraffic{{AvgLoad: 0.8, BurstLoad: 1.4, Classes: []TrafficClass{
				{Priority: PC, Share: 0.5, FixedBytes: 1436},
				{Priority: NC, Share: 0.3, FixedBytes: 1436},
				{Priority: BE, Share: 0.2, FixedBytes: 1436},
			}}},
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(cfg)
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

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
