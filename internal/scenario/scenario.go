// Package scenario is the simulation composition layer: it turns the
// monolithic "which system is this?" switch into a registry of pluggable
// SystemBuilders and turns hard-wired all-to-all traffic into pluggable
// TrafficPatterns. A run is composed as
//
//	topology × system × traffic pattern × load shape
//
// where each axis varies independently: the run loop never mentions a
// concrete system, adding a system means registering a builder here, and
// adding a traffic matrix means implementing Pattern. Load shapes live in
// internal/workload, next to the generator that consumes them.
package scenario

import (
	"fmt"
	"sort"

	"aequitas/internal/core"
	"aequitas/internal/netsim"
	"aequitas/internal/obs"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// Env is the per-run build context a SystemBuilder consumes: the fabric,
// the shared transport knobs, and the admission-control configuration.
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

	// Tracer, when non-nil, is attached to every endpoint built through
	// NewEndpoint.
	Tracer *obs.Tracer

	// Attr, when non-nil, is the run's latency attributor, threaded into
	// every endpoint built through NewEndpoint (systems that bypass the
	// standard transport contribute no transport-stage attribution).
	Attr *obs.Attributor

	// Endpoints records the transport endpoints created via NewEndpoint,
	// indexed by host, so the run can register per-connection metrics
	// samplers. Entries stay nil for hosts whose system bypasses the
	// standard transport (Homa, D3, PDQ).
	Endpoints []*transport.Endpoint
}

// NewEndpoint builds host i's transport endpoint with the run's shared
// RTO floor and tracer, and records it for metrics sampling.
func (e *Env) NewEndpoint(i int, tc transport.Config) *transport.Endpoint {
	tc.RTOMin = e.RTOMin
	tc.Trace = e.Tracer
	tc.Attr = e.Attr
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

// HostStack is one host's wiring as produced by a SystemBuilder.
type HostStack struct {
	// Sender carries this host's RPC payloads.
	Sender rpc.Sender
	// Controller decides admission for this host's RPCs when the host
	// runs Algorithm 1, and the run samples it for probes and metrics;
	// nil means admit everything on the requested class.
	Controller *core.Controller
}

// SystemBuilder constructs one end-to-end system. Builders are stateless
// and registered once; Build is called per run to create the instance
// holding any cross-host state (e.g. a deadline fabric).
type SystemBuilder interface {
	// Scheduler returns the per-port switch scheduler factory this system
	// deploys in the fabric.
	Scheduler(weights []float64, perClassBufferBytes int) netsim.SchedulerFactory
	// Build creates the per-run instance; called once before any host.
	Build(env *Env) (Instance, error)
}

// Instance wires one run's hosts and exposes the system's end-of-run
// accounting.
type Instance interface {
	// Host builds host i's sender and admitter.
	Host(env *Env, i int) (HostStack, error)
	// Terminated reports RPCs the system abandoned (deadline-driven
	// baselines); 0 for everything else.
	Terminated() int64
}

var registry = map[string]SystemBuilder{}

// Register installs a SystemBuilder under a unique name. It panics on
// duplicates: two systems claiming one name is a programming error.
func Register(name string, b SystemBuilder) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate system %q", name))
	}
	registry[name] = b
}

// Lookup returns the builder registered under name.
func Lookup(name string) (SystemBuilder, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown system %q", name)
	}
	return b, nil
}

// Names returns the registered system names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
