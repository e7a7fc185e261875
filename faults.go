package aequitas

import (
	"io"
	"time"

	"aequitas/internal/faults"
	"aequitas/internal/netsim"
	"aequitas/internal/qos"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
)

// FaultPlan is a deterministic, seeded schedule of fault events injected
// into a run via SimConfig.Faults: link down/up, per-link random packet
// loss, and host crash/restart. See the faults package for semantics and
// the plan grammar.
type FaultPlan = faults.Plan

// FaultEvent is one scheduled fault.
type FaultEvent = faults.Event

// FaultWindow is one interval during which a fault was active.
type FaultWindow = faults.Window

// LinkDownAt / LinkUpAt schedule a link blackhole and its repair. link
// is an egress link name ("up-2", "down-0") or HostLinkTarget(n) for
// both access links of host n.
func LinkDownAt(at time.Duration, link string) FaultEvent {
	return FaultEvent{At: sim.FromStd(at), Kind: faults.LinkDown, Target: link}
}

func LinkUpAt(at time.Duration, link string) FaultEvent {
	return FaultEvent{At: sim.FromStd(at), Kind: faults.LinkUp, Target: link}
}

// LinkLossAt sets an independent per-packet random loss probability on a
// link; rate 0 clears it.
func LinkLossAt(at time.Duration, link string, rate float64) FaultEvent {
	return FaultEvent{At: sim.FromStd(at), Kind: faults.LinkLoss, Target: link, Rate: rate}
}

// HostCrashAt / HostRestartAt schedule a host failure and its recovery:
// in-flight RPCs are lost, admission-controller state resets, transport
// and outstanding-RPC accounting clear, and peers tear down connections
// toward the host.
func HostCrashAt(at time.Duration, host int) FaultEvent {
	return FaultEvent{At: sim.FromStd(at), Kind: faults.HostCrash, Target: faults.HostTarget(host)}
}

func HostRestartAt(at time.Duration, host int) FaultEvent {
	return FaultEvent{At: sim.FromStd(at), Kind: faults.HostRestart, Target: faults.HostTarget(host)}
}

// HostLinkTarget names both access links (uplink and last-hop downlink)
// of host n as a fault target.
func HostLinkTarget(n int) string { return faults.HostTarget(n) }

// ParseFaultPlan reads a plan file; see the faults package for the
// grammar.
func ParseFaultPlan(r io.Reader) (*FaultPlan, error) { return faults.ParsePlan(r) }

// FaultPreset builds a named canonical plan ("flap", "crash",
// "flapcrash", "loss") scaled to a run of the given duration.
func FaultPreset(name string, duration time.Duration) (*FaultPlan, error) {
	return faults.Preset(name, duration)
}

// FaultPresetNames lists the built-in presets the simulator applies.
func FaultPresetNames() []string { return faults.PresetNames(false) }

// RetryParams configures client-side RPC robustness: per-attempt
// timeouts, a bounded retry budget whose k-th retry waits Timeout/2·2^(k−1),
// and optional hedged duplicates on the scavenger class. The zero value
// disables everything.
type RetryParams struct {
	// Timeout is the per-attempt deadline; 0 disables timeouts/retries.
	Timeout time.Duration
	// MaxRetries bounds retries after the first attempt.
	MaxRetries int
	// HedgeAfter, when > 0, duplicates each still-incomplete RPC once
	// after that delay onto the scavenger class (RepFlow-style hedging);
	// the first completion wins.
	HedgeAfter time.Duration
	// HedgeMaxBytes hedges only RPCs of at most this payload size; 0
	// hedges all sizes.
	HedgeMaxBytes int64
}

// retryPolicy converts the public params to the stack's policy. Hedges
// ride the scavenger (lowest) class so the duplicate takes an
// independent per-class connection and queue path.
func (c *SimConfig) retryPolicy() rpc.RetryPolicy {
	p := rpc.RetryPolicy{
		Timeout:    sim.FromStd(c.Retry.Timeout),
		MaxRetries: c.Retry.MaxRetries,
		HedgeAfter: sim.FromStd(c.Retry.HedgeAfter),
		HedgeClass: qos.Class(c.levels() - 1),
	}
	if c.Retry.HedgeMaxBytes > 0 {
		p.HedgeMaxMTUs = netsim.MTUsFor(c.Retry.HedgeMaxBytes)
	}
	return p
}
