package aequitas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aequitas/internal/core"
	"aequitas/internal/netsim"
	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// Class identifies a network QoS level; 0 is the highest. The lowest
// configured class is the scavenger: it carries best-effort and
// downgraded traffic and has no SLO.
type Class = qos.Class

// The standard three levels.
const (
	High   = qos.High
	Medium = qos.Medium
	Low    = qos.Low
)

// Priority is an application-level RPC priority class.
type Priority = qos.Priority

// The paper's three priority classes: performance-critical, non-critical,
// best-effort.
const (
	PC = qos.PC
	NC = qos.NC
	BE = qos.BE
)

// SLO defines one QoS class's RPC network-latency objective.
type SLO struct {
	// Target is the RNL objective for an RPC of ReferenceBytes. The
	// controller normalises it per MTU internally, so larger RPCs get
	// proportionally larger absolute targets.
	Target time.Duration
	// ReferenceBytes is the RPC size Target refers to. Zero means Target
	// is already the per-MTU budget.
	ReferenceBytes int64
	// Percentile is the tail the SLO is defined at (default 99.9). It
	// controls how conservatively the admit probability is raised.
	Percentile float64
}

// perMTU converts the SLO to the per-MTU target Algorithm 1 consumes.
func (s SLO) perMTU() sim.Duration {
	t := sim.FromStd(s.Target)
	if s.ReferenceBytes > 0 {
		t = t / sim.Duration(netsim.MTUsFor(s.ReferenceBytes))
	}
	return t
}

// ControllerConfig parameterises an AdmissionController.
type ControllerConfig struct {
	// SLOs lists the objectives for every class except the lowest, from
	// the highest class down. len(SLOs)+1 is the number of QoS levels.
	SLOs []SLO
	// Alpha is the additive increment of the admit probability (default
	// 0.01).
	Alpha float64
	// Beta is the multiplicative decrement per SLO miss per MTU of RPC
	// size (default 0.01).
	Beta float64
	// Floor is the admit probability's lower bound, preventing
	// starvation (default 0.01).
	Floor float64
}

// Decision is the controller's verdict for one RPC.
type Decision struct {
	// Class is the QoS level to issue the RPC on.
	Class Class
	// Downgraded reports that the RPC was demoted to the scavenger
	// class. Applications receive this explicitly (Algorithm 1 lines
	// 10-11) and may react by prioritising their most critical RPCs.
	Downgraded bool
	// Dropped reports that the RPC must not be sent at all. It only
	// occurs with a quota admitter running fail-closed during a
	// quota-plane outage (see SetQuota).
	Dropped bool
}

// ControllerStats is a point-in-time snapshot of an AdmissionController's
// cumulative decision and observation counters.
type ControllerStats struct {
	Admitted   int64
	Downgraded int64
	Dropped    int64
	SLOMisses  int64
	SLOMet     int64
	// Expired counts requests rejected before the admission draw because
	// their remaining deadline budget could not cover the observed
	// latency floor (see RecordExpired).
	Expired int64
}

// AdmissionController is the Aequitas algorithm packaged for a real RPC
// stack: one instance per sending process. It is safe for concurrent use:
// Admit is lock-free on the hot path (an atomic peer-table load plus the
// core controller's sharded state), and Observe serialises only on the
// single (peer, class) channel it updates.
//
// Usage per RPC: call Admit with the destination and the requested class,
// issue the RPC on the returned class (e.g. via the DSCP field), and on
// completion call Observe with the measured RPC network latency.
type AdmissionController struct {
	inner *core.Controller
	mu    sync.Mutex // guards peer-table inserts
	peers atomic.Pointer[peerTable]
	// quota, when set, layers a tenant quota bypass (and its stale-lease
	// failure policy) over the probabilistic path.
	quota atomic.Pointer[core.QuotaAdmitter]
}

// peerTable interns peer names to dense destination IDs. It is immutable;
// inserts replace the whole table copy-on-write so readers never lock.
type peerTable struct {
	ids   map[string]int
	names []string
}

// NewController validates cfg and builds a controller on a lock-free
// monotonic wall clock — the live serving configuration.
func NewController(cfg ControllerConfig) (*AdmissionController, error) {
	return NewControllerWithClock(cfg, nil)
}

// NewControllerWithClock is NewController with an explicit time-and-draw
// source (nil means the wall clock) — the hook that lets deterministic
// tests share one core.ManualClock between the controller and the serve
// layer.
func NewControllerWithClock(cfg ControllerConfig, clk core.Clock) (*AdmissionController, error) {
	if len(cfg.SLOs) == 0 {
		return nil, fmt.Errorf("aequitas: at least one SLO class required")
	}
	levels := len(cfg.SLOs) + 1
	cc := core.Config{
		Levels:            levels,
		LatencyTargets:    make([]sim.Duration, levels),
		TargetPercentiles: make([]float64, levels),
		Alpha:             cfg.Alpha,
		Beta:              cfg.Beta,
		Floor:             cfg.Floor,
	}
	if cc.Alpha == 0 {
		cc.Alpha = 0.01
	}
	if cc.Beta == 0 {
		cc.Beta = 0.01
	}
	if cc.Floor == 0 {
		cc.Floor = 0.01
	}
	for i, s := range cfg.SLOs {
		cc.LatencyTargets[i] = s.perMTU()
		cc.TargetPercentiles[i] = s.Percentile
		if cc.TargetPercentiles[i] == 0 {
			cc.TargetPercentiles[i] = 99.9
		}
	}
	inner, err := core.NewWithClock(cc, clk)
	if err != nil {
		return nil, err
	}
	c := &AdmissionController{inner: inner}
	c.peers.Store(&peerTable{ids: map[string]int{}})
	return c, nil
}

// peerID interns peer, lock-free when the peer has been seen before.
func (c *AdmissionController) peerID(peer string) int {
	if id, ok := c.peers.Load().ids[peer]; ok {
		return id
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.peers.Load()
	if id, ok := old.ids[peer]; ok {
		return id
	}
	next := &peerTable{
		ids:   make(map[string]int, len(old.ids)+1),
		names: make([]string, len(old.names), len(old.names)+1),
	}
	for k, v := range old.ids {
		next.ids[k] = v
	}
	copy(next.names, old.names)
	id := len(next.names)
	next.ids[peer] = id
	next.names = append(next.names, peer)
	c.peers.Store(next)
	return id
}

// Admit decides the QoS class for an RPC of sizeBytes toward peer that
// requested the given class.
func (c *AdmissionController) Admit(peer string, requested Class, sizeBytes int64) Decision {
	dst, mtus := c.peerID(peer), netsim.MTUsFor(sizeBytes)
	if qa := c.quota.Load(); qa != nil {
		d := qa.Admit(dst, requested, mtus)
		return Decision{Class: d.Class, Downgraded: d.Downgraded, Dropped: d.Drop}
	}
	d := c.inner.Admit(dst, requested, mtus)
	return Decision{Class: d.Class, Downgraded: d.Downgraded}
}

// SetQuota layers a tenant quota over the controller: RPCs within the
// client's leased rate bypass the probabilistic draw, and quota-plane
// outages past the lease TTL are handled per policy (fail-open falls
// through to the normal path, fail-closed drops SLO-class RPCs). A nil
// client removes the layer. Attach before serving begins.
func (c *AdmissionController) SetQuota(client *core.QuotaClient, policy core.QuotaFailPolicy) {
	if client == nil {
		c.quota.Store(nil)
		return
	}
	c.quota.Store(&core.QuotaAdmitter{Controller: c.inner, Client: client, Policy: policy})
}

// QuotaStats snapshots the quota layer's counters; ok is false when no
// quota client is attached.
type QuotaStats struct {
	// Policy is the stale-lease failure policy in effect.
	Policy core.QuotaFailPolicy
	// InQuotaAdmits counts RPCs admitted on the quota bypass.
	InQuotaAdmits int64
	// StalePassed counts RPCs that fell through to the probabilistic path
	// on a stale lease under fail-open.
	StalePassed int64
	// StaleDropped counts RPCs dropped on a stale lease under fail-closed.
	StaleDropped int64
	// Lease is the underlying client's lease-health snapshot.
	Lease core.QuotaLeaseStats
}

// QuotaStats reports the quota layer's counters, or ok=false when no
// quota client is attached.
func (c *AdmissionController) QuotaStats() (QuotaStats, bool) {
	qa := c.quota.Load()
	if qa == nil {
		return QuotaStats{}, false
	}
	return QuotaStats{
		Policy:        qa.Policy,
		InQuotaAdmits: atomic.LoadInt64(&qa.InQuotaAdmits),
		StalePassed:   atomic.LoadInt64(&qa.StalePassed),
		StaleDropped:  atomic.LoadInt64(&qa.StaleDropped),
		Lease:         qa.Client.LeaseStats(),
	}, true
}

// RecordExpired counts (and flight-records) a request rejected before
// the admission draw because its remaining deadline budget could not
// cover the observed latency floor — the serving layer's
// expired-before-admit verdict.
func (c *AdmissionController) RecordExpired(peer string, requested Class, sizeBytes int64) {
	c.inner.RecordExpired(c.peerID(peer), requested, netsim.MTUsFor(sizeBytes))
}

// IncrementWindow reports class's additive-increase window: the earliest
// interval after which a rejected sender could observe a higher admit
// probability, and therefore the natural Retry-After hint. Classes
// without an SLO report zero.
func (c *AdmissionController) IncrementWindow(class Class) time.Duration {
	return c.inner.IncrementWindow(class).Std()
}

// Scavenger reports the lowest configured class — the SLO-free level
// that carries best-effort and downgraded traffic.
func (c *AdmissionController) Scavenger() Class { return c.inner.Scavenger() }

// Clock exposes the controller's time-and-draw source so colocated
// layers (serving middleware, brownout) share one time base.
func (c *AdmissionController) Clock() core.Clock { return c.inner.Clock() }

// Observe feeds back one completed RPC's measured network latency on the
// class it actually ran on.
func (c *AdmissionController) Observe(peer string, ran Class, rnl time.Duration, sizeBytes int64) {
	c.inner.Observe(c.peerID(peer), ran, sim.FromStd(rnl), netsim.MTUsFor(sizeBytes))
}

// AdmitProbability reports the current admit probability toward peer on
// the given class, for monitoring.
func (c *AdmissionController) AdmitProbability(peer string, class Class) float64 {
	return c.inner.AdmitProbability(c.peerID(peer), class)
}

// Stats returns an atomic snapshot of the controller's cumulative
// counters, safe to call while other goroutines admit and observe.
func (c *AdmissionController) Stats() ControllerStats {
	s := c.inner.Stats.Load()
	return ControllerStats{
		Admitted:   s.Admitted,
		Downgraded: s.Downgraded,
		Dropped:    s.Dropped,
		SLOMisses:  s.SLOMisses,
		SLOMet:     s.SLOMet,
		Expired:    s.Expired,
	}
}

// SetFlight attaches a flight recorder to the controller: every
// admission decision and SLO observation lands in r as a fixed-size
// record, ready to dump when an anomaly trigger fires. A nil r detaches.
// Attach before serving begins.
func (c *AdmissionController) SetFlight(r *flight.Ring) { c.inner.SetFlight(r, 0) }

// Flight returns the attached flight recorder, or nil.
func (c *AdmissionController) Flight() *flight.Ring { return c.inner.Flight() }

// PeerName resolves an interned peer id back to its name, for rendering
// flight dumps; unknown ids yield "".
func (c *AdmissionController) PeerName(id int32) string {
	names := c.peers.Load().names
	if id >= 0 && int(id) < len(names) {
		return names[id]
	}
	return ""
}

// MinAdmitProbability reports the minimum admit probability across every
// live (peer, class) channel, or 1 when no channel exists yet — the
// scalar the anomaly engine watches for admission collapse.
func (c *AdmissionController) MinAdmitProbability() float64 {
	minP := 1.0
	c.inner.ForEachState(c.inner.Clock().Now(), func(_ int, _ qos.Class, p float64, _ sim.Duration) {
		if p < minP {
			minP = p
		}
	})
	return minP
}

// ForEachProbability visits every (peer, class) admission channel in
// deterministic order with its current admit probability — the live
// metrics surface.
func (c *AdmissionController) ForEachProbability(f func(peer string, class Class, pAdmit float64)) {
	names := c.peers.Load().names
	c.inner.ForEachState(c.inner.Clock().Now(), func(dst int, class qos.Class, p float64, _ sim.Duration) {
		if dst >= 0 && dst < len(names) {
			f(names[dst], class, p)
		}
	})
}
