package figures

import (
	"fmt"
	"io"

	"aequitas"
	"aequitas/internal/stats"
)

// attributionConfigs runs the cluster workload under every system with the
// latency attributor enabled and prints each system's stacked per-class
// mean decomposition: where an RPC's RNL is spent — admission, sender
// host, transport window, pacing stalls, NIC queue, switch queues, and
// the wire residual. Systems that bypass the standard transport (Homa,
// D3, PDQ) report their in-network time entirely as wire: the
// decomposition degrades, it never lies.
func attributionConfigs(o Options) []aequitas.SimConfig {
	return each(aequitas.Systems(), func(s aequitas.System) aequitas.SimConfig {
		cfg := Cluster(o, s, [3]float64{0.5, 0.3, 0.2})
		cfg.Obs.Attribution = true
		return cfg
	})
}

func figAttribution(w io.Writer, _ Options, res []*aequitas.Results) error {
	for _, r := range res {
		fmt.Fprintf(w, "%s (mean us per completed RPC):\n", r.System)
		tb := stats.NewTable("class", "n", "admit", "sender", "transport", "pacing", "nic", "switch", "wire", "rnl")
		for _, c := range r.Classes() {
			a, ok := r.Attribution[c]
			if !ok {
				continue
			}
			tb.AddRow(c.String(), a.N, a.AdmitUS, a.SenderUS, a.TransportUS,
				a.PacingUS, a.NICUS, a.SwitchUS, a.WireUS, a.RNLUS)
		}
		tb.Write(w)
	}
	return nil
}
