package aequitas

import (
	"time"

	"aequitas/internal/scenario"
	"aequitas/internal/sim"
	"aequitas/internal/workload"
)

// TrafficPattern generates a traffic matrix — which hosts send to which
// destinations — for a HostTraffic entry. Patterns are expanded and
// validated up front when the configuration is checked.
type TrafficPattern = scenario.Pattern

// UniformPattern is the all-to-all matrix: every host sends to every
// other host uniformly. This is also the default when a HostTraffic
// entry leaves Hosts, Dsts and Pattern unset.
func UniformPattern() TrafficPattern { return scenario.Uniform{} }

// IncastPattern converges fanin senders onto host 0 — the canonical
// many-to-one overload. fanin 0 means every other host sends.
func IncastPattern(fanin int) TrafficPattern { return scenario.Incast{Fanin: fanin} }

// IncastPatternTo is IncastPattern with an explicit receiver.
func IncastPatternTo(fanin, dst int) TrafficPattern {
	return scenario.Incast{Fanin: fanin, Dst: dst}
}

// PermutationPattern pairs host i with destination (i+1) mod n: each
// host sends to exactly one peer and receives from exactly one peer.
func PermutationPattern() TrafficPattern { return scenario.Permutation{} }

// HotspotPattern skews the all-to-all matrix: every sender directs
// share (in (0,1)) of its traffic at host hot and spreads the rest
// evenly; the hot host itself sends uniformly.
func HotspotPattern(hot int, share float64) TrafficPattern {
	return scenario.Hotspot{Hot: hot, Share: share}
}

// LoadShape scales a traffic entry's offered load over simulated time,
// turning the static AvgLoad into a step, ramp, or on/off cycle.
type LoadShape = workload.LoadShape

// ConstantLoad keeps the offered load at AvgLoad for the whole run; the
// same as leaving Shape nil.
func ConstantLoad() LoadShape { return workload.Constant{} }

// StepLoad multiplies the offered load by factor from time at onward —
// e.g. StepLoad(5*time.Millisecond, 2) doubles the load mid-run.
func StepLoad(at time.Duration, factor float64) LoadShape {
	return workload.Step{At: sim.FromStd(at), Factor: factor}
}

// RampLoad interpolates the load factor linearly from 1 at time from to
// factor at time to, holding factor afterwards.
func RampLoad(from, to time.Duration, factor float64) LoadShape {
	return workload.Ramp{From: sim.FromStd(from), To: sim.FromStd(to), Factor: factor}
}

// OnOffLoad cycles the load between full-on and silence: each period
// starts with duty (in (0,1]) of on-time followed by an off phase.
func OnOffLoad(period time.Duration, duty float64) LoadShape {
	return workload.OnOff{Period: sim.FromStd(period), Duty: duty}
}

// Systems returns every System in enum order; their String values are
// what the -system CLI flag accepts.
func Systems() []System {
	out := make([]System, len(scenario.Systems))
	for i := range out {
		out[i] = System(i)
	}
	return out
}
