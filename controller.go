package aequitas

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aequitas/internal/core"
	"aequitas/internal/netsim"
	"aequitas/internal/qos"
	"aequitas/internal/rpc"
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
}

// Decision is the controller's verdict for one RPC: the class to issue it
// on, whether that is a demotion to the scavenger class (Downgraded),
// whether it must not be sent at all (Dropped — only under a quota
// running fail-closed during a quota-plane outage, see SetQuota), and the
// admit probability the draw was compared against (PAdmit).
type Decision = rpc.Decision

// ControllerStats is a point-in-time snapshot of an AdmissionController's
// cumulative decision and observation counters.
type ControllerStats = core.Stats

// QuotaStats snapshots the quota branch's counters.
type QuotaStats = core.QuotaStats

// AdmissionController is the Aequitas algorithm packaged for callers
// outside this module: a core.Controller behind the two things only a
// facade can do — name peers by string and size RPCs in bytes. One
// instance per sending process. It is safe for concurrent use: Admit is
// lock-free on the hot path (an atomic peer-table load plus the core
// controller's channel table), and Observe serialises only on the single
// (peer, class) channel it updates.
//
// Usage per RPC: call Admit with the destination and the requested class,
// issue the RPC on the returned class (e.g. via the DSCP field), and on
// completion call Observe with the measured RPC network latency.
type AdmissionController struct {
	inner *core.Controller
	mu    sync.Mutex // guards peer-table inserts
	peers atomic.Pointer[peerTable]
}

// peerTable interns peer names to dense destination IDs. It is immutable;
// inserts replace the whole table copy-on-write so readers never lock.
type peerTable struct {
	ids   map[string]int
	names []string
}

// MaxPeers bounds the peer table: peer names arrive in request headers,
// and every insert copies the table. Peers past the bound share one
// admission channel, id MaxPeers, named OverflowPeer; that name is never
// interned, so a peer calling itself OverflowPeer is on that channel
// too.
const (
	MaxPeers     = 1024
	OverflowPeer = "(other peers)"
)

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
	inner, err := core.NewWithClock(coreConfig(len(cfg.SLOs)+1, cfg.SLOs, AdmissionParams{}), clk)
	if err != nil {
		return nil, err
	}
	c := &AdmissionController{inner: inner}
	c.peers.Store(&peerTable{ids: map[string]int{}})
	return c, nil
}

// Core returns the Algorithm 1 controller behind the facade, for layers
// inside this module that address peers by id (see PeerID) and size RPCs
// in MTUs.
func (c *AdmissionController) Core() *core.Controller { return c.inner }

// lookup finds peer's id. OverflowPeer, and once the table is full every
// unknown peer, is the overflow channel.
func (t *peerTable) lookup(peer string) (int, bool) {
	if id, ok := t.ids[peer]; ok {
		return id, true
	}
	return MaxPeers, peer == OverflowPeer || len(t.names) == MaxPeers
}

// PeerID interns peer to the dense destination id the core controller
// keys its channels by, lock-free when the peer has been seen before. A
// name is interned as valid UTF-8, each invalid byte run one U+FFFD, so
// names that differ only there share a channel and render as one series.
// Every interned name is valid, so a name found as it came needs no
// sanitising; only a miss pays for it.
func (c *AdmissionController) PeerID(peer string) int {
	t := c.peers.Load()
	if id, ok := t.ids[peer]; ok {
		return id
	}
	peer = strings.ToValidUTF8(peer, "\uFFFD")
	if id, ok := t.lookup(peer); ok {
		return id
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.peers.Load()
	if id, ok := old.lookup(peer); ok {
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

// PeerName resolves an interned peer id back to its name, for rendering
// flight dumps; unknown ids yield "".
func (c *AdmissionController) PeerName(id int32) string {
	names := c.peers.Load().names
	switch {
	case id == MaxPeers:
		return OverflowPeer
	case id >= 0 && int(id) < len(names):
		return names[id]
	}
	return ""
}

// Admit decides the QoS class for an RPC of sizeBytes toward peer that
// requested the given class.
func (c *AdmissionController) Admit(peer string, requested Class, sizeBytes int64) Decision {
	return c.inner.Admit(c.PeerID(peer), requested, netsim.MTUsFor(sizeBytes))
}

// Observe feeds back one completed RPC's measured network latency on the
// class it actually ran on.
func (c *AdmissionController) Observe(peer string, ran Class, rnl time.Duration, sizeBytes int64) {
	c.inner.Observe(c.PeerID(peer), ran, sim.FromStd(rnl), netsim.MTUsFor(sizeBytes))
}

// AdmitProbability reports the current admit probability toward peer on
// the given class, for monitoring.
func (c *AdmissionController) AdmitProbability(peer string, class Class) float64 {
	return c.inner.AdmitProbability(c.PeerID(peer), class)
}

// SetQuota puts a tenant quota in front of the draw: RPCs within the
// client's leased rate bypass it, and quota-plane outages past the lease
// TTL are handled per policy (fail-open falls through to the normal
// path, fail-closed drops SLO-class RPCs). A nil client removes the
// quota.
func (c *AdmissionController) SetQuota(client *core.QuotaClient, policy core.QuotaFailPolicy) {
	c.inner.SetQuota(client, policy)
}

// QuotaStats reports the quota branch's counters, or ok=false when no
// quota client is attached.
func (c *AdmissionController) QuotaStats() (QuotaStats, bool) { return c.inner.QuotaStats() }

// Stats returns an atomic snapshot of the controller's cumulative
// counters, safe to call while other goroutines admit and observe.
func (c *AdmissionController) Stats() ControllerStats { return c.inner.Stats() }

// ForEachProbability visits every (peer, class) admission channel in
// deterministic order with its current admit probability — the live
// metrics surface.
func (c *AdmissionController) ForEachProbability(f func(peer string, class Class, pAdmit float64)) {
	c.inner.ForEachState(c.inner.Clock().Now(), func(dst int, class qos.Class, p float64, _ sim.Duration) {
		if name := c.PeerName(int32(dst)); name != "" {
			f(name, class, p)
		}
	})
}
