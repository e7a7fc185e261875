// Package scenario is the simulation composition layer: it holds the
// table of evaluated systems (Systems, one row per system: its name, its
// switch scheduler and its host wiring) and the pluggable traffic
// matrices (Pattern). A run is composed as
//
//	topology × system × traffic pattern × load shape
//
// where each axis varies independently: the run loop never mentions a
// concrete system, adding a system means adding a row to Systems (and a
// constant to the root package's System enum, which indexes it), and
// adding a traffic matrix means implementing Pattern. Load shapes live in
// internal/workload, next to the generator that consumes them.
package scenario

import (
	"aequitas/internal/baselines"
	"aequitas/internal/core"
	"aequitas/internal/netsim"
	"aequitas/internal/obs"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// Env is the per-run build context a system's Host function consumes: the
// fabric, the shared transport knobs, and the admission-control
// configuration.
type Env struct {
	Net   *netsim.Network
	Hosts int
	// Levels is the number of QoS classes (the WFQ weight count).
	Levels   int
	LineRate sim.Rate

	// Transport knobs shared by endpoint-based systems.
	RTOMin      sim.Duration
	DisableCC   bool
	FixedWindow float64

	// Core is the Algorithm 1 configuration, consumed by systems that run
	// admission control.
	Core core.Config

	// Clock is the admission controllers' time-and-randomness source.
	// The run wires a core.SimClock over its simulator so controller
	// draws stay on the deterministic RNG stream; a nil Clock falls back
	// to the wall clock (live embedding).
	Clock core.Clock

	// Tracer, when non-nil, is the run's lifecycle observer, attached to
	// every endpoint built through NewEndpoint (systems that bypass the
	// standard transport report no transport-stage events).
	Tracer *obs.Tracer

	// Endpoints records the transport endpoints created via NewEndpoint,
	// indexed by host, so the run can register per-connection metrics
	// samplers. Entries stay nil for hosts whose system bypasses the
	// standard transport (Homa, D3, PDQ).
	Endpoints []*transport.Endpoint

	// deadline is the D3/PDQ rate-allocation fabric shared by every host
	// of a deadline system, created by the first such host; nil for the
	// other systems.
	deadline *baselines.DeadlineFabric
}

// Terminated reports the RPCs the run's system abandoned: the deadline
// fabric's count for D3 and PDQ, 0 for every other system.
func (e *Env) Terminated() int64 {
	if e.deadline == nil {
		return 0
	}
	return e.deadline.Terminated
}

// NewEndpoint builds host i's transport endpoint with the run's shared
// RTO floor and tracer, and records it for metrics sampling.
func (e *Env) NewEndpoint(i int, tc transport.Config) *transport.Endpoint {
	tc.RTOMin = e.RTOMin
	tc.Trace = e.Tracer
	ep := transport.NewEndpoint(e.Net, e.Net.Host(i), tc)
	e.Endpoints[i] = ep
	return ep
}

// SwiftEndpoint builds the standard endpoint: Swift delay-based
// congestion control with a 10 µs delay target, or a fixed window when
// congestion control is disabled.
func (e *Env) SwiftEndpoint(i int) *transport.Endpoint {
	tc := transport.Config{}
	if e.DisableCC {
		w := e.FixedWindow
		tc.NewCC = func() transport.CC { return transport.Fixed{W: w} }
	} else {
		const target = 10 * sim.Microsecond
		tc.NewCC = func() transport.CC { return transport.SwiftDefaults(target) }
	}
	return e.NewEndpoint(i, tc)
}

// HostStack is one host's wiring as produced by a system's Host function.
type HostStack struct {
	// Sender carries this host's RPC payloads.
	Sender rpc.Sender
	// Controller decides admission for this host's RPCs when the host
	// runs Algorithm 1, and the run samples it for probes and metrics;
	// nil means admit everything on the requested class.
	Controller *core.Controller
}
