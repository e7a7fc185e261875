package figures

import (
	"fmt"
	"io"
	"time"

	"aequitas"
	"aequitas/internal/stats"
)

// fairnessConfig builds the §6.5 3-node setup: channel A offers shareA of
// line rate on QoSh, channel B shareB, QoSh SLO 15 µs per 32 KB.
func fairnessConfig(o Options, shareA, shareB, beta float64) aequitas.SimConfig {
	return aequitas.SimConfig{
		System: aequitas.SystemAequitas, Hosts: 3, Seed: o.Seed,
		Duration: o.Long, Warmup: o.Long / 8,
		QoSWeights: []float64{4, 1},
		SLOs:       slo32(15, 0),
		Admission:  aequitas.AdmissionParams{Alpha: 0.01, Beta: beta},
		Traffic: []aequitas.HostTraffic{
			{Hosts: []int{0}, Dsts: []int{2}, AvgLoad: 1, Arrival: aequitas.ArrivalPeriodic,
				Classes: []aequitas.TrafficClass{
					{Priority: aequitas.PC, Share: shareA, FixedBytes: 32 << 10},
					{Priority: aequitas.BE, Share: 1 - shareA, FixedBytes: 32 << 10},
				}},
			{Hosts: []int{1}, Dsts: []int{2}, AvgLoad: 1, Arrival: aequitas.ArrivalPeriodic,
				Classes: []aequitas.TrafficClass{
					{Priority: aequitas.PC, Share: shareB, FixedBytes: 32 << 10},
					{Priority: aequitas.BE, Share: 1 - shareB, FixedBytes: 32 << 10},
				}},
		},
		Probes: []aequitas.Probe{
			{Src: 0, Dst: 2, Class: aequitas.High},
			{Src: 1, Dst: 2, Class: aequitas.High},
		},
		SampleEvery: 2 * time.Millisecond,
	}
}

func reportChannels(w io.Writer, res *aequitas.Results, names [2]string) {
	tail := 0.6 * res.Probes[0].AdmitProbability.T[len(res.Probes[0].AdmitProbability.T)-1]
	tb := stats.NewTable("channel", "final p_admit", "mean p_admit", "admitted goodput(Gbps)")
	for i, pr := range res.Probes {
		tb.AddRow(names[i], pr.AdmitProbability.Final(0),
			pr.AdmitProbability.MeanAfter(tail), pr.ThroughputGbps.MeanAfter(tail))
	}
	tb.Write(w)
}

func fairnessConfigs(o Options) []aequitas.SimConfig {
	return []aequitas.SimConfig{fairnessConfig(o, 0.4, 0.8, 0.01)}
}

func figFairness(w io.Writer, _ Options, res []*aequitas.Results) error {
	reportChannels(w, res[0], [2]string{"A (40G offered)", "B (80G offered)"})
	fmt.Fprintf(w, "QoSh 99.9p RNL %.1fus (SLO 15us); the heavier channel runs at a lower\n",
		res[0].RNLQuantileUS(aequitas.High, 0.999))
	fmt.Fprintln(w, "p_admit so admitted shares equalise (Fig 17)")
	return nil
}

// maxMinConfigs puts channel A in quota at 10%; B wants 80%.
func maxMinConfigs(o Options) []aequitas.SimConfig {
	return []aequitas.SimConfig{fairnessConfig(o, 0.1, 0.8, 0.01)}
}

func figMaxMin(w io.Writer, _ Options, res []*aequitas.Results) error {
	reportChannels(w, res[0], [2]string{"A (10G, in quota)", "B (80G)"})
	pA := res[0].Probes[0].AdmitProbability
	fmt.Fprintf(w, "in-quota channel A: mean p_admit %.2f (paper: stays ~1.0, 1st-p 0.82);\n",
		pA.MeanAfter(0.3*pA.T[len(pA.T)-1]))
	fmt.Fprintln(w, "channel B reclaims the excess: max-min fairness (Fig 18)")
	return nil
}

func relatedWorkConfigs(o Options) []aequitas.SimConfig {
	systems := []aequitas.System{
		aequitas.SystemAequitas, aequitas.SystemPFabric, aequitas.SystemQJump,
		aequitas.SystemD3, aequitas.SystemPDQ, aequitas.SystemHoma,
	}
	return each(systems, func(s aequitas.System) aequitas.SimConfig {
		// The per-MTU SLO targets translate to the 250/300us deadlines
		// for D3/PDQ.
		cfg := production(o, s, o.Nodes, 1.4, [3]float64{0.5, 0.3, 0.2})
		cfg.Traffic[0].Classes[0].Deadline = 250 * time.Microsecond
		cfg.Traffic[0].Classes[1].Deadline = 300 * time.Microsecond
		return cfg
	})
}

func figRelatedWork(w io.Writer, _ Options, res []*aequitas.Results) error {
	tb := stats.NewTable("system", "QoSh in SLO(%)", "utilization(%)",
		"QoSh 99.9p(us)", "QoSm 99.9p(us)", "QoSl 99.9p(us)", "terminated")
	for _, r := range res {
		tb.AddRow(r.System.String(),
			100*r.SLOMetBytesFraction[aequitas.PC],
			100*r.GoodputFraction,
			r.RNLQuantileUS(aequitas.High, 0.999),
			r.RNLQuantileUS(aequitas.Medium, 0.999),
			r.RNLQuantileUS(aequitas.Low, 0.999),
			r.Terminated)
	}
	tb.Write(w)
	fmt.Fprintln(w, "(Fig 22: Aequitas admits the most SLO-compliant PC traffic; D3/PDQ")
	fmt.Fprintln(w, "terminate hopeless RPCs and sacrifice utilisation; pFabric/Homa favour")
	fmt.Fprintln(w, "small RPCs; QJump holds packet latency but not RPC-level SLOs)")
	return nil
}

var betas = []float64{0.01, 0.0015}

func betaConfigs(o Options) []aequitas.SimConfig {
	return each(betas, func(beta float64) aequitas.SimConfig { return fairnessConfig(o, 0.1, 0.8, beta) })
}

func figBetaSensitivity(w io.Writer, _ Options, res []*aequitas.Results) error {
	for i, r := range res {
		fmt.Fprintf(w, "beta = %v (Fig 18 setup, in-quota channel A):\n", betas[i])
		reportChannels(w, r, [2]string{"A (10G, in quota)", "B (80G)"})
		fmt.Fprintf(w, "QoSh 99.9p RNL %.1fus\n\n", r.RNLQuantileUS(aequitas.High, 0.999))
	}
	fmt.Fprintln(w, "smaller beta stabilises p_admit for in-quota channels but is less")
	fmt.Fprintln(w, "aggressive about SLO compliance (Appendix C)")
	return nil
}

var ablations = []struct {
	name string
	mod  func(*aequitas.SimConfig)
}{
	{"full design", func(*aequitas.SimConfig) {}},
	{"no increment window", func(c *aequitas.SimConfig) { c.Admission.NoIncrementWindow = true }},
	{"no size-scaled MD", func(c *aequitas.SimConfig) { c.Admission.NoSizeScaledMD = true }},
	{"floor = 0.4 (too high)", func(c *aequitas.SimConfig) { c.Admission.Floor = 0.4 }},
	{"drop instead of downgrade", func(c *aequitas.SimConfig) { c.Admission.DropInsteadOfDowngrade = true }},
}

func ablationConfigs(o Options) []aequitas.SimConfig {
	cfgs := make([]aequitas.SimConfig, len(ablations))
	for i, v := range ablations {
		cfgs[i] = ThreeNode(aequitas.SystemAequitas, 25, o.Seed)
		v.mod(&cfgs[i])
	}
	return cfgs
}

func figAblations(w io.Writer, _ Options, res []*aequitas.Results) error {
	tb := stats.NewTable("variant", "QoSh 99.9p(us)", "admitted QoSh(%)", "goodput frac", "dropped")
	for i, r := range res {
		tb.AddRow(ablations[i].name,
			r.RNLQuantileUS(aequitas.High, 0.999),
			100*r.AdmittedMix[0],
			r.GoodputFraction,
			r.Dropped)
	}
	tb.Write(w)
	fmt.Fprintln(w, "removing the increment window overshoots and breaks the SLO; removing")
	fmt.Fprintln(w, "size-scaled MD over-admits; a high floor forces SLO violations; dropping")
	fmt.Fprintln(w, "permanently discards work that downgrading would eventually complete")
	return nil
}
