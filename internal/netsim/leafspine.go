package netsim

import (
	"fmt"

	"aequitas/internal/sim"
)

// Topology selects the fabric shape. The zero value is the single-switch
// star used by most of the paper's experiments. Setting Leaves and Spines
// builds a two-tier leaf-spine fabric, which lets experiments create
// overload at leaf-to-spine uplinks — the paper's point that congestion
// "can occur anywhere in the network along the path that an RPC takes"
// (§2.2.2), not just at edge links.
type Topology struct {
	// Leaves is the number of leaf switches; hosts are spread evenly
	// across leaves (Hosts must be divisible by Leaves). Zero means a
	// single-switch star.
	Leaves int
	// Spines is the number of spine switches; every leaf connects to
	// every spine. The fabric's oversubscription ratio is
	// (hosts-per-leaf × LinkRate) / (Spines × SpineLinkRate).
	Spines int
	// SpineLinkRate is the rate of each leaf-spine link (default: the
	// host link rate).
	SpineLinkRate sim.Rate
}

// leafSwitch forwards local traffic to host ports and remote traffic to a
// spine chosen by a deterministic flow hash (per (src, dst, class), so a
// connection's packets stay in order).
type leafSwitch struct {
	id         int
	net        *Network
	spinePorts []*Link // one per spine
}

// HandlePacket implements Handler.
func (l *leafSwitch) HandlePacket(s *sim.Simulator, p *Packet) {
	if p.Dst/l.net.perLeaf == l.id {
		l.net.downlinks[p.Dst].Send(s, p)
		return
	}
	l.spinePorts[flowHash(p)%len(l.spinePorts)].Send(s, p)
}

// spineSwitch forwards down to the destination's leaf.
type spineSwitch struct {
	id        int
	net       *Network
	leafPorts []*Link // one per leaf
}

// HandlePacket implements Handler.
func (sp *spineSwitch) HandlePacket(s *sim.Simulator, p *Packet) {
	sp.leafPorts[p.Dst/sp.net.perLeaf].Send(s, p)
}

// flowHash spreads (src, dst, class) tuples across spines (ECMP-style,
// per-flow to preserve ordering).
func flowHash(p *Packet) int {
	h := uint32(p.Src)*2654435761 ^ uint32(p.Dst)*40503 ^ uint32(p.Class)*97
	h ^= h >> 16
	return int(h & 0x7fffffff)
}

// buildLeafSpine wires the two-tier fabric.
func (n *Network) buildLeafSpine(cfg Config) error {
	t := cfg.Topology
	if t.Leaves < 2 {
		return fmt.Errorf("netsim: leaf-spine needs at least 2 leaves")
	}
	if t.Spines < 1 {
		return fmt.Errorf("netsim: leaf-spine needs at least 1 spine")
	}
	if cfg.Hosts%t.Leaves != 0 {
		return fmt.Errorf("netsim: %d hosts not divisible by %d leaves", cfg.Hosts, t.Leaves)
	}
	spineRate := t.SpineLinkRate
	if spineRate == 0 {
		spineRate = cfg.LinkRate
	}
	perLeaf := cfg.Hosts / t.Leaves
	n.perLeaf = perLeaf

	n.leaves = make([]*leafSwitch, t.Leaves)
	n.spines = make([]*spineSwitch, t.Spines)
	for si := range n.spines {
		n.spines[si] = &spineSwitch{id: si, net: n, leafPorts: make([]*Link, t.Leaves)}
	}
	n.downlinks = make([]*Link, cfg.Hosts)

	for li := 0; li < t.Leaves; li++ {
		leaf := &leafSwitch{id: li, net: n}
		n.leaves[li] = leaf
		for k := 0; k < perLeaf; k++ {
			hid := li*perLeaf + k
			h := &Host{ID: hid, net: n}
			down := NewLink(fmt.Sprintf("leaf%d-host%d", li, hid), cfg.LinkRate, cfg.PropDelay, cfg.SwitchSched(), h)
			n.downlinks[hid] = down
			h.Uplink = NewLink(fmt.Sprintf("host%d-leaf%d", hid, li), cfg.LinkRate, cfg.PropDelay, cfg.SwitchSched(), leaf)
			n.hosts = append(n.hosts, h)
		}
		for si := 0; si < t.Spines; si++ {
			up := NewLink(fmt.Sprintf("leaf%d-spine%d", li, si), spineRate, cfg.PropDelay, cfg.SwitchSched(), n.spines[si])
			leaf.spinePorts = append(leaf.spinePorts, up)
			n.spines[si].leafPorts[li] = NewLink(fmt.Sprintf("spine%d-leaf%d", si, li), spineRate, cfg.PropDelay, cfg.SwitchSched(), leaf)
		}
	}
	return nil
}

// CoreLinks returns every leaf→spine and spine→leaf link, for core
// congestion instrumentation. Empty in a star topology.
func (n *Network) CoreLinks() []*Link {
	var out []*Link
	for _, l := range n.leaves {
		out = append(out, l.spinePorts...)
	}
	for _, sp := range n.spines {
		out = append(out, sp.leafPorts...)
	}
	return out
}

// SameLeaf reports whether two hosts share a leaf (always true in a
// star).
func (n *Network) SameLeaf(a, b int) bool {
	if n.perLeaf == 0 {
		return true
	}
	return a/n.perLeaf == b/n.perLeaf
}
