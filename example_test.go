package aequitas_test

import (
	"fmt"
	"time"

	"aequitas"
)

// ExampleNewController shows the admission controller embedded in a real
// RPC stack: decide a class per RPC, feed back measured latency.
func ExampleNewController() {
	ctl, err := aequitas.NewController(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{
			{Target: 15 * time.Microsecond, ReferenceBytes: 32 << 10}, // QoSh
			{Target: 25 * time.Microsecond, ReferenceBytes: 32 << 10}, // QoSm
		},
	})
	if err != nil {
		panic(err)
	}

	d := ctl.Admit("storage-server-17", aequitas.High, 32<<10)
	fmt.Println("issue on:", d.Class, "downgraded:", d.Downgraded)

	// ... send the RPC on d.Class, measure its network latency ...
	ctl.Observe("storage-server-17", d.Class, 12*time.Microsecond, 32<<10)
	fmt.Printf("p_admit: %.2f\n", ctl.AdmitProbability("storage-server-17", aequitas.High))
	// Output:
	// issue on: QoSh downgraded: false
	// p_admit: 1.00
}

// ExampleDelayBoundHigh evaluates the closed-form worst-case WFQ delay of
// §4.1 at the Figure 8 parameters.
func ExampleDelayBoundHigh() {
	// φ=4:1 weights, burst load ρ=1.2, average load µ=0.8.
	fmt.Printf("%.3f\n", aequitas.DelayBoundHigh(4, 1.2, 0.8, 0.5)) // within guaranteed rate
	fmt.Printf("%.3f\n", aequitas.DelayBoundHigh(4, 1.2, 0.8, 0.9)) // past the inversion point
	// Output:
	// 0.000
	// 0.133
}

// ExampleGuaranteedShare computes the §5.2 floor on admitted traffic.
func ExampleGuaranteedShare() {
	share := aequitas.GuaranteedShare([]float64{8, 4, 1}, 0, 0.8, 1.4)
	fmt.Printf("QoSh is guaranteed at least %.1f%% of line rate\n", 100*share)
	// Output:
	// QoSh is guaranteed at least 35.2% of line rate
}

// ExampleRun simulates a small overloaded cluster with and without
// admission control and reads the per-QoS tail latency: two hosts send
// into one receiver at line rate, a 2x overload of its downlink.
func ExampleRun() {
	for _, system := range []aequitas.System{aequitas.SystemBaseline, aequitas.SystemAequitas} {
		res, err := aequitas.Run(aequitas.SimConfig{
			System:   system,
			Hosts:    3,
			Seed:     1,
			Duration: 10 * time.Millisecond,
			SLOs: []aequitas.SLO{
				{Target: 25 * time.Microsecond, ReferenceBytes: 32 << 10},
				{Target: 50 * time.Microsecond, ReferenceBytes: 32 << 10},
			},
			Traffic: []aequitas.HostTraffic{{
				Hosts:   []int{0, 1},
				Dsts:    []int{2},
				AvgLoad: 1.0,
				Classes: []aequitas.TrafficClass{
					{Priority: aequitas.PC, Share: 0.7, FixedBytes: 32 << 10},
					{Priority: aequitas.BE, Share: 0.3, FixedBytes: 32 << 10},
				},
			}},
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: downgrades happened: %v, QoSh tail below 10x SLO: %v\n",
			system, res.Downgraded > 0, res.RNLQuantileUS(aequitas.High, 0.999) < 250)
	}
	// Output:
	// baseline: downgrades happened: false, QoSh tail below 10x SLO: false
	// aequitas: downgrades happened: true, QoSh tail below 10x SLO: true
}
