package rpc

import (
	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// AdaptiveApp models an application that uses Aequitas's explicit
// downgrade notification (Algorithm 1 lines 10-11). The paper's rationale
// for notifying applications: "when not all RPCs can be admitted on the
// requested QoS, the application has the freedom to control which RPCs
// are more critical and issue only those at higher QoS to prevent
// downgrades" (§5.1).
//
// The app issues a mix of truly-critical and filler work, all nominally
// performance-critical. It tracks an EWMA of the downgrade rate; when
// downgrades exceed Threshold, it voluntarily marks its filler work
// non-critical, so the admitted high-QoS budget concentrates on the RPCs
// that actually need it.
type AdaptiveApp struct {
	Stack *Stack
	// Threshold is the downgrade-rate EWMA above which the app demotes
	// filler work (default 0.1).
	Threshold float64
	// Gain is the EWMA weight for each new observation (default 0.05).
	Gain float64

	downgradeEWMA float64

	// Stats.
	CriticalIssued     int64
	CriticalDowngraded int64
	FillerSelfDemoted  int64
}

// Adapting reports whether the app is currently demoting filler work.
func (a *AdaptiveApp) Adapting() bool {
	return a.downgradeEWMA > a.threshold()
}

func (a *AdaptiveApp) threshold() float64 {
	if a.Threshold > 0 {
		return a.Threshold
	}
	return 0.1
}

func (a *AdaptiveApp) gain() float64 {
	if a.Gain > 0 {
		return a.Gain
	}
	return 0.05
}

// Issue sends one RPC. critical marks the RPCs the application genuinely
// cannot afford to have downgraded; filler is nominally PC work the app
// would mark down under pressure. The app reads the verdict off r after
// Stack.Issue, so r must be the caller's own, not one from NewRPC.
func (a *AdaptiveApp) Issue(s *sim.Simulator, r *RPC, critical bool) {
	r.Priority = qos.PC
	if !critical && a.Adapting() {
		// Voluntary demotion: skip the contended class entirely.
		r.Priority = qos.NC
		a.FillerSelfDemoted++
	}
	if critical {
		a.CriticalIssued++
	}
	a.Stack.Issue(s, r)
	// The decision is visible synchronously on the RPC: account for the
	// notification exactly as an application callback would.
	if r.Priority == qos.PC {
		rate := 0.0
		if r.Downgraded {
			rate = 1.0
			if critical {
				a.CriticalDowngraded++
			}
		}
		a.downgradeEWMA += a.gain() * (rate - a.downgradeEWMA)
	}
}
