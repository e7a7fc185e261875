package main

import (
	"fmt"
	"os"

	"aequitas"
	"aequitas/internal/stats"
)

func init() {
	register("attribution", "per-class latency breakdown (admit/host/transport/fabric) across systems", figAttribution)
}

// figAttribution runs the cluster workload under every system with the
// latency attributor enabled and prints each system's stacked per-class
// mean decomposition: where an RPC's RNL is spent — admission, sender
// host, transport window, pacing stalls, NIC queue, switch queues, and
// the wire residual. Systems that bypass the standard transport (Homa,
// D3, PDQ) report their in-network time entirely as wire: the
// decomposition degrades, it never lies.
func figAttribution(o options) error {
	systems := aequitas.Systems()
	cfgs := make([]aequitas.SimConfig, len(systems))
	for i, sys := range systems {
		cfg := clusterConfig(o, sys, [3]float64{0.5, 0.3, 0.2})
		cfg.Obs.Attribution = true
		cfgs[i] = cfg
	}
	// This figure is a long multi-system sweep, so completion progress is
	// always reported (stderr keeps piped stdout clean).
	results, err := aequitas.RunMany(cfgs, aequitas.ParallelOptions{
		Workers: o.workers,
		OnProgress: func(p aequitas.Progress) {
			fmt.Fprintf(os.Stderr, "  run %d/%d done (%s)\n", p.Done, p.Total, systems[p.Index])
		},
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		fmt.Printf("%s (mean us per completed RPC):\n", systems[i])
		tb := stats.NewTable("class", "n", "admit", "sender", "transport", "pacing", "nic", "switch", "wire", "rnl")
		for _, c := range res.Classes() {
			a, ok := res.Attribution[c]
			if !ok {
				continue
			}
			tb.AddRow(c.String(), a.N, a.AdmitUS, a.SenderUS, a.TransportUS,
				a.PacingUS, a.NICUS, a.SwitchUS, a.WireUS, a.RNLUS)
		}
		tb.Write(os.Stdout)
	}
	return nil
}
