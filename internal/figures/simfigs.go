package figures

import (
	"fmt"
	"io"
	"time"

	"aequitas"
	"aequitas/internal/calculus"
	"aequitas/internal/stats"
)

// slo32 returns the standard absolute SLOs for 32 KB RPCs used by the
// cluster experiments.
func slo32(highUS, medUS float64) []aequitas.SLO {
	out := []aequitas.SLO{{
		Target:         time.Duration(highUS * float64(time.Microsecond)),
		ReferenceBytes: 32 << 10,
		Percentile:     99.9,
	}}
	if medUS > 0 {
		out = append(out, aequitas.SLO{
			Target:         time.Duration(medUS * float64(time.Microsecond)),
			ReferenceBytes: 32 << 10,
			Percentile:     99.9,
		})
	}
	return out
}

// Cluster is the all-to-all "33-node" setup (§6.1) at o.Nodes hosts over
// o.Dur: per-host load 0.8 average, 1.4 burst, Poisson arrivals, 32 KB
// RPCs split PC/NC/BE by mix, SLOs 25/50 µs per 32 KB.
func Cluster(o Options, system aequitas.System, mix [3]float64) aequitas.SimConfig {
	return aequitas.SimConfig{
		System:     system,
		Hosts:      o.Nodes,
		Seed:       o.Seed,
		Duration:   o.Dur,
		QoSWeights: []float64{8, 4, 1},
		SLOs:       slo32(25, 50),
		Traffic: []aequitas.HostTraffic{{
			AvgLoad:   0.8,
			BurstLoad: 1.4,
			Classes: []aequitas.TrafficClass{
				{Priority: aequitas.PC, Share: mix[0], FixedBytes: 32 << 10},
				{Priority: aequitas.NC, Share: mix[1], FixedBytes: 32 << 10},
				{Priority: aequitas.BE, Share: mix[2], FixedBytes: 32 << 10},
			},
		}},
	}
}

// ThreeNode is the §6.2 microbenchmark and the ablation base: two senders
// issue 32 KB RPCs at line rate to one receiver, 70% PC / 30% BE, so the
// receiver's downlink is persistently 2× overloaded. QoSh's SLO is sloUS
// per 32 KB; the run is 80 ms, the first 30 of them warm-up.
func ThreeNode(system aequitas.System, sloUS float64, seed int64) aequitas.SimConfig {
	return aequitas.SimConfig{
		System: system, Hosts: 3, Seed: seed,
		Duration: 80 * time.Millisecond, Warmup: 30 * time.Millisecond,
		QoSWeights: []float64{4, 1},
		SLOs:       slo32(sloUS, 0),
		Traffic: []aequitas.HostTraffic{{
			Hosts: []int{0, 1}, Dsts: []int{2},
			AvgLoad: 1.0, Arrival: aequitas.ArrivalPeriodic,
			Classes: []aequitas.TrafficClass{
				{Priority: aequitas.PC, Share: 0.7, FixedBytes: 32 << 10},
				{Priority: aequitas.BE, Share: 0.3, FixedBytes: 32 << 10},
			},
		}},
	}
}

// Fig 10's 2-QoS burst model: WFQ weights phi:1, average load mu, burst
// load rho, bursts every theoryPeriod.
const (
	theoryMu, theoryRho, theoryPhi = 0.8, 1.2, 4.0
	theoryPeriod                   = time.Millisecond
)

// TheoryValidation is Fig 10's run at QoSh-share x (§6.2): two senders,
// one receiver, periodic bursts, congestion control off and unlimited
// buffers, so the packet simulator's worst-case per-class delays are
// comparable with the closed-form theory's.
func TheoryValidation(x float64, seed int64) aequitas.SimConfig {
	return aequitas.SimConfig{
		System: aequitas.SystemBaseline, Hosts: 3, Seed: seed,
		Duration: 60 * time.Millisecond, Warmup: 10 * time.Millisecond,
		QoSWeights: []float64{theoryPhi, 1}, PerClassBufferBytes: -1,
		DisableCC: true, FixedWindow: 512, BurstPeriod: theoryPeriod,
		RTOMin: 500 * time.Millisecond, // no spurious RTO
		Traffic: []aequitas.HostTraffic{{
			Hosts: []int{0, 1}, Dsts: []int{2},
			// The two senders sum to mu and rho.
			AvgLoad: theoryMu / 2, BurstLoad: theoryRho / 2, Arrival: aequitas.ArrivalPeriodic,
			Classes: []aequitas.TrafficClass{
				{Priority: aequitas.PC, Share: x, FixedBytes: 1436},
				{Priority: aequitas.NC, Share: 1 - x, FixedBytes: 1436},
			},
		}},
	}
}

// theoryShares are Fig 10's QoSh-shares, 10% to 90%.
func theoryShares() []float64 {
	var xs []float64
	for x := 0.1; x < 0.95; x += 0.1 {
		xs = append(xs, x)
	}
	return xs
}

// bothSystems are the without/with Aequitas pair most figures compare.
var bothSystems = []aequitas.System{aequitas.SystemBaseline, aequitas.SystemAequitas}

// sloMix is the cluster experiments' PC/NC/BE input mix.
var sloMix = [3]float64{0.6, 0.3, 0.1}

func simVsTheoryConfigs(o Options) []aequitas.SimConfig {
	return each(theoryShares(), func(x float64) aequitas.SimConfig { return TheoryValidation(x, o.Seed) })
}

func figSimVsTheory(w io.Writer, _ Options, res []*aequitas.Results) error {
	theory := calculus.TwoQoS{Phi: theoryPhi, Rho: theoryRho, Mu: theoryMu}
	p := float64(theoryPeriod.Microseconds())
	tb := stats.NewTable("QoSh-share(%)", "sim QoSh", "theory QoSh", "sim QoSl", "theory QoSl")
	for i, x := range theoryShares() {
		tb.AddRow(fmt.Sprintf("%.0f", 100*x),
			res[i].RNLRun[aequitas.High].MaxUS/p, theory.DelayHigh(x),
			res[i].RNLRun[aequitas.Medium].MaxUS/p, theory.DelayLow(x))
	}
	tb.Write(w)
	fmt.Fprintln(w, "(normalized worst-case delay; the paper's Fig 10 validation)")
	return nil
}

var sloKnobs = []float64{15, 25, 40, 60}

func sloKnobConfigs(o Options) []aequitas.SimConfig {
	return each(sloKnobs, func(slo float64) aequitas.SimConfig {
		// The additive-increase window scales with the SLO target
		// (Algorithm 1 line 4), so looser SLOs converge more slowly and
		// need a longer horizon to reach their equilibrium share.
		cfg := ThreeNode(aequitas.SystemAequitas, slo, o.Seed)
		cfg.Duration, cfg.Warmup = 300*time.Millisecond, 100*time.Millisecond
		return cfg
	})
}

func figSLOKnob(w io.Writer, _ Options, res []*aequitas.Results) error {
	tb := stats.NewTable("SLO(us)", "achieved 99.9p(us)", "admitted QoSh-share(%)")
	for i, r := range res {
		tb.AddRow(sloKnobs[i], r.RNLQuantileUS(aequitas.High, 0.999), 100*r.AdmittedMix[0])
	}
	tb.Write(w)
	fmt.Fprintln(w, "achieved tail RNL tracks the SLO; stricter SLOs admit less traffic")
	return nil
}

func clusterSLOConfigs(o Options) []aequitas.SimConfig {
	return each(bothSystems, func(s aequitas.System) aequitas.SimConfig { return Cluster(o, s, sloMix) })
}

func figClusterSLO(w io.Writer, _ Options, res []*aequitas.Results) error {
	tb := stats.NewTable("system", "QoSh 99.9p(us)", "QoSm 99.9p(us)", "QoSl 99.9p(us)")
	tb.AddRow("SLO", 25.0, 50.0, "-")
	for _, r := range res {
		tb.AddRow("w/ "+r.System.String(),
			r.RNLQuantileUS(aequitas.High, 0.999),
			r.RNLQuantileUS(aequitas.Medium, 0.999),
			r.RNLQuantileUS(aequitas.Low, 0.999))
	}
	tb.Write(w)
	return nil
}

func outstandingConfigs(o Options) []aequitas.SimConfig {
	cfgs := clusterSLOConfigs(o)
	for i := range cfgs {
		cfgs[i].TrackOutstanding = true
	}
	return cfgs
}

func figOutstanding(w io.Writer, _ Options, res []*aequitas.Results) error {
	for _, r := range res {
		hi := cdfQuantiles(r.OutstandingHighMed)
		lo := cdfQuantiles(r.OutstandingLow)
		fmt.Fprintf(w, "%-9s outstanding RPCs/port QoSh+QoSm p50/p90/p99: %.0f/%.0f/%.0f  QoSl: %.0f/%.0f/%.0f\n",
			r.System, hi[0], hi[1], hi[2], lo[0], lo[1], lo[2])
	}
	fmt.Fprintln(w, "Aequitas cuts SLO-class outstanding RPCs; the scavenger class absorbs them")
	return nil
}

func cdfQuantiles(pts []aequitas.Point) [3]float64 {
	var out [3]float64
	qs := []float64{0.5, 0.9, 0.99}
	for i, q := range qs {
		for _, p := range pts {
			if p.Y >= q {
				out[i] = p.X
				break
			}
		}
	}
	return out
}

var admissibleShares = []float64{0.05, 0.15, 0.25, 0.40, 0.55, 0.70}

func admissibleConfigs(o Options) []aequitas.SimConfig {
	return each(admissibleShares, func(x float64) aequitas.SimConfig {
		qm := 0.25
		return Cluster(o, aequitas.SystemBaseline, [3]float64{x, qm, 1 - x - qm})
	})
}

func figAdmissibleSweep(w io.Writer, _ Options, res []*aequitas.Results) error {
	tb := stats.NewTable("QoSh-share(%)", "QoSh 99.9p(us)", "QoSm 99.9p(us)", "QoSl 99.9p(us)")
	for i, r := range res {
		tb.AddRow(fmt.Sprintf("%.0f", 100*admissibleShares[i]),
			r.RNLQuantileUS(aequitas.High, 0.999),
			r.RNLQuantileUS(aequitas.Medium, 0.999),
			r.RNLQuantileUS(aequitas.Low, 0.999))
	}
	tb.Write(w)
	fmt.Fprintln(w, "the share where QoSh 99.9p crosses the SLO is the maximal admissible share")
	return nil
}

var inputMixes = [][3]float64{
	{0.25, 0.25, 0.50},
	{0.60, 0.30, 0.10},
	{0.50, 0.30, 0.20},
	{0.40, 0.40, 0.20},
}

func mixConfigs(o Options) []aequitas.SimConfig {
	return each(inputMixes, func(in [3]float64) aequitas.SimConfig { return Cluster(o, aequitas.SystemAequitas, in) })
}

func figMixConvergence(w io.Writer, _ Options, res []*aequitas.Results) error {
	tb := stats.NewTable("input mix", "admitted mix", "QoSh 99.9p(us)")
	for i, r := range res {
		in := inputMixes[i]
		tb.AddRow(
			fmt.Sprintf("%.0f/%.0f/%.0f", 100*in[0], 100*in[1], 100*in[2]),
			fmt.Sprintf("%.0f/%.0f/%.0f", 100*r.AdmittedMix[0], 100*r.AdmittedMix[1], 100*r.AdmittedMix[2]),
			r.RNLQuantileUS(aequitas.High, 0.999))
	}
	tb.Write(w)
	fmt.Fprintln(w, "the admitted mix is set by the SLOs, not by the input mix (§6.3)")
	return nil
}

var burstRhos = []float64{1.4, 1.6, 1.8, 2.0, 2.2}

func burstConfigs(o Options) []aequitas.SimConfig {
	return each(burstRhos, func(rho float64) aequitas.SimConfig {
		cfg := Cluster(o, aequitas.SystemAequitas, sloMix)
		cfg.Traffic[0].BurstLoad = rho
		return cfg
	})
}

func figBurstiness(w io.Writer, _ Options, res []*aequitas.Results) error {
	tb := stats.NewTable("burst load rho", "admitted QoSh-share(%)", "share x rho")
	for i, r := range res {
		share := 100 * r.AdmittedMix[0]
		tb.AddRow(burstRhos[i], share, share*burstRhos[i])
	}
	tb.Write(w)
	fmt.Fprintln(w, "share x rho roughly constant: admitted traffic is inversely proportional to burstiness (§6.4)")
	return nil
}

var spqShares = []float64{0.5, 0.6, 0.7, 0.8}

// spqConfigs interleaves pairs: cfgs[2i] is SPQ, cfgs[2i+1] is Aequitas
// for spqShares[i].
func spqConfigs(o Options) []aequitas.SimConfig {
	var cfgs []aequitas.SimConfig
	for _, x := range spqShares {
		mix := [3]float64{x, 0.2, 0.8 - x}
		cfgs = append(cfgs,
			Cluster(o, aequitas.SystemSPQ, mix),
			Cluster(o, aequitas.SystemAequitas, mix))
	}
	return cfgs
}

func figSPQ(w io.Writer, _ Options, res []*aequitas.Results) error {
	tb := stats.NewTable("QoSh-share(%)", "SPQ QoSh 99.9p", "SPQ QoSm 99.9p", "AEQ QoSh 99.9p", "AEQ QoSm 99.9p")
	for i, x := range spqShares {
		spq, aeq := res[2*i], res[2*i+1]
		tb.AddRow(fmt.Sprintf("%.0f", 100*x),
			spq.RNLQuantileUS(aequitas.High, 0.999), spq.RNLQuantileUS(aequitas.Medium, 0.999),
			aeq.RNLQuantileUS(aequitas.High, 0.999), aeq.RNLQuantileUS(aequitas.Medium, 0.999))
	}
	tb.Write(w)
	fmt.Fprintln(w, "SPQ degrades as more traffic claims the top class; Aequitas holds its SLOs (§6.7)")
	return nil
}

func mixedSizeConfigs(o Options) []aequitas.SimConfig {
	cfg := Cluster(o, aequitas.SystemAequitas, sloMix)
	// Half the offered bytes in 32 KB RPCs, half in 64 KB RPCs (§6.8).
	for i := range cfg.Traffic[0].Classes {
		cfg.Traffic[0].Classes[i].FixedBytes = 0
		cfg.Traffic[0].Classes[i].Size = aequitas.SizeChoice(
			[]int64{32 << 10, 64 << 10}, []float64{1, 1})
	}
	base := Cluster(o, aequitas.SystemBaseline, sloMix)
	base.Traffic = cfg.Traffic
	return []aequitas.SimConfig{base, cfg}
}

func figMixedSizes(w io.Writer, _ Options, res []*aequitas.Results) error {
	tb := stats.NewTable("system", "QoSh 99.9p(us)", "QoSm 99.9p(us)", "QoSl 99.9p(us)", "QoSh in SLO(%)")
	for i, name := range []string{"w/o aequitas", "w/ aequitas"} {
		tb.AddRow(name,
			res[i].RNLQuantileUS(aequitas.High, 0.999),
			res[i].RNLQuantileUS(aequitas.Medium, 0.999),
			res[i].RNLQuantileUS(aequitas.Low, 0.999),
			100*res[i].SLOMetRunBytesFraction[aequitas.High])
	}
	tb.Write(w)
	fmt.Fprintln(w, "per-MTU normalisation lets mixed 32/64KB RPCs share one SLO (§6.8)")
	return nil
}

// production is the all-to-all setup with the production size mix of
// Figs 21 and 22: per-MTU SLOs of 20/40 µs, average load 0.8, burst load
// burst, PC/NC/BE split by mix.
func production(o Options, system aequitas.System, hosts int, burst float64, mix [3]float64) aequitas.SimConfig {
	return aequitas.SimConfig{
		System: system, Hosts: hosts, Seed: o.Seed, Duration: o.Dur,
		QoSWeights: []float64{8, 4, 1},
		SLOs: []aequitas.SLO{
			{Target: 20 * time.Microsecond, Percentile: 99.9},
			{Target: 40 * time.Microsecond, Percentile: 99.9},
		},
		Traffic: []aequitas.HostTraffic{{
			AvgLoad: 0.8, BurstLoad: burst,
			Classes: []aequitas.TrafficClass{
				{Priority: aequitas.PC, Share: mix[0], Size: aequitas.ProductionPCSizes()},
				{Priority: aequitas.NC, Share: mix[1], Size: aequitas.ProductionNCSizes()},
				{Priority: aequitas.BE, Share: mix[2], Size: aequitas.ProductionBESizes()},
			},
		}},
	}
}

func largeScaleConfigs(o Options) []aequitas.SimConfig {
	return each(bothSystems, func(s aequitas.System) aequitas.SimConfig {
		cfg := production(o, s, o.Big, 2.0, sloMix) // extreme fan-in bursts on downlinks
		cfg.BurstPeriod = 200 * time.Microsecond
		return cfg
	})
}

func figLargeScale(w io.Writer, _ Options, res []*aequitas.Results) error {
	tb := stats.NewTable("system", "QoSh 99.9p(us)", "QoSm 99.9p(us)", "QoSl 99.9p(us)", "admitted mix")
	var tails [2][2]float64
	for i, r := range res {
		tails[i][0] = r.RNLQuantileUS(aequitas.High, 0.999)
		tails[i][1] = r.RNLQuantileUS(aequitas.Medium, 0.999)
		tb.AddRow(r.System.String(),
			tails[i][0], tails[i][1],
			r.RNLQuantileUS(aequitas.Low, 0.999),
			fmt.Sprintf("%.0f/%.0f/%.0f", 100*r.AdmittedMix[0], 100*r.AdmittedMix[1], 100*r.AdmittedMix[2]))
	}
	tb.Write(w)
	fmt.Fprintf(w, "tail RNL improvement: QoSh %.1fx, QoSm %.1fx (paper: 3.7x / 2.2x)\n",
		tails[0][0]/tails[1][0], tails[0][1]/tails[1][1])
	return nil
}

// Fig 23's testbed: 20 hosts offered testbedInput, with SLOs calibrated
// at testbedTarget.
var testbedInput, testbedTarget = [3]float64{0.5, 0.35, 0.15}, [3]float64{0.2, 0.3, 0.5}

func testbed(o Options, system aequitas.System, mix [3]float64) aequitas.SimConfig {
	o.Nodes = 20
	return Cluster(o, system, mix)
}

// testbedConfigs is Fig 23's first stage, the one figure that runs in two:
// the calibration run, the baseline with the input mix equal to the
// target mix, whose achieved 99.9p RNLs become the SLOs (the paper's
// normalisation, §6.11). figTestbed runs the measured pair under those
// SLOs itself, on the same worker pool.
func testbedConfigs(o Options) []aequitas.SimConfig {
	return []aequitas.SimConfig{testbed(o, aequitas.SystemBaseline, testbedTarget)}
}

func figTestbed(w io.Writer, o Options, res []*aequitas.Results) error {
	cal := res[0]
	calH := cal.RNLQuantileUS(aequitas.High, 0.999)
	calM := cal.RNLQuantileUS(aequitas.Medium, 0.999)
	calL := cal.RNLQuantileUS(aequitas.Low, 0.999)
	measured, err := aequitas.RunMany(each(bothSystems, func(s aequitas.System) aequitas.SimConfig {
		cfg := testbed(o, s, testbedInput)
		cfg.SLOs = slo32(calH, calM)
		return cfg
	}), o.parallel())
	if err != nil {
		return err
	}
	tb := stats.NewTable("system", "QoSh RNL(norm)", "QoSm RNL(norm)", "QoSl RNL(norm)", "QoS-share")
	for i, name := range []string{"w/o aequitas", "w/ aequitas"} {
		r := measured[i]
		tb.AddRow(name,
			r.RNLQuantileUS(aequitas.High, 0.999)/calH,
			r.RNLQuantileUS(aequitas.Medium, 0.999)/calM,
			r.RNLQuantileUS(aequitas.Low, 0.999)/calL,
			fmt.Sprintf("%.0f/%.0f/%.0f", 100*r.AdmittedMix[0], 100*r.AdmittedMix[1], 100*r.AdmittedMix[2]))
	}
	tb.Write(w)
	fmt.Fprintf(w, "target QoS-mix: %.0f/%.0f/%.0f; Aequitas converges toward it while holding normalized RNL ~1 (§6.11)\n",
		100*testbedTarget[0], 100*testbedTarget[1], 100*testbedTarget[2])
	return nil
}
