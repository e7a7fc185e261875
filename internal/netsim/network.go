package netsim

import (
	"fmt"

	"aequitas/internal/obs"
	"aequitas/internal/sim"
	"aequitas/internal/wfq"
)

// SchedulerFactory builds one egress scheduler instance. Each host uplink
// and each switch egress port receives its own instance.
type SchedulerFactory func() wfq.Scheduler

// Config describes a star topology.
type Config struct {
	// Hosts is the number of end hosts attached to the switch.
	Hosts int
	// LinkRate applies to every host<->switch link (the paper evaluates
	// at 100 Gbps throughout).
	LinkRate sim.Rate
	// PropDelay is the one-way propagation delay of each link.
	PropDelay sim.Duration
	// SwitchSched builds the scheduler for every egress port: each switch
	// port and each host uplink NIC. Defaults to 3-class WFQ 8:4:1 with
	// 2 MB per class.
	SwitchSched SchedulerFactory
	// Topology selects the fabric shape (default: single-switch star).
	Topology Topology
}

func (c *Config) applyDefaults() {
	if c.LinkRate == 0 {
		c.LinkRate = 100 * sim.Gbps
	}
	if c.PropDelay == 0 {
		c.PropDelay = 500 * sim.Nanosecond
	}
	if c.SwitchSched == nil {
		c.SwitchSched = func() wfq.Scheduler {
			return wfq.NewWFQ([]float64{8, 4, 1}, 2<<20)
		}
	}
}

// Network is the simulated fabric: a single-switch star or a two-tier
// leaf-spine, per Config.Topology.
type Network struct {
	cfg    Config
	hosts  []*Host
	nextID uint64

	// downlinks[i] is the last-hop link delivering to host i, whichever
	// switch owns it.
	downlinks []*Link

	// Star topology.
	sw *Switch

	// Leaf-spine topology: host h hangs off leaf h/perLeaf.
	leaves  []*leafSwitch
	spines  []*spineSwitch
	perLeaf int

	// byName indexes links for fault-injection targeting; built lazily.
	byName map[string]*Link

	// pktFree recycles Packet structs through the transport's send/ack
	// path. Each simulation is single-threaded and owns its Network, so no
	// synchronisation is needed; steady-state packet traffic then allocates
	// nothing. Packets that never reach a FreePacket call (drops, packets
	// consumed by baseline receivers) simply fall to the garbage collector.
	pktFree []*Packet
}

// AllocPacket returns a zeroed packet, reusing a recycled one when
// available. Callers fill the fields they need; all fields start at their
// zero values.
func (n *Network) AllocPacket() *Packet {
	if k := len(n.pktFree); k > 0 {
		p := n.pktFree[k-1]
		n.pktFree[k-1] = nil
		n.pktFree = n.pktFree[:k-1]
		return p
	}
	return &Packet{}
}

// FreePacket recycles p. The caller must hold the only live reference: p is
// zeroed and handed to the next AllocPacket.
func (n *Network) FreePacket(p *Packet) {
	*p = Packet{}
	n.pktFree = append(n.pktFree, p)
}

// Host is an end host: an uplink into the switch and a receive handler.
type Host struct {
	ID     int
	Uplink *Link
	net    *Network
	recv   Handler
}

// Switch is an output-queued switch: packets arriving from any host are
// immediately placed on the egress port (downlink) toward their
// destination.
type Switch struct {
	downlinks []*Link
}

// HandlePacket implements Handler: route by destination host.
func (sw *Switch) HandlePacket(s *sim.Simulator, p *Packet) {
	if p.Dst < 0 || p.Dst >= len(sw.downlinks) {
		panic(fmt.Sprintf("netsim: packet to unknown host %d", p.Dst))
	}
	sw.downlinks[p.Dst].Send(s, p)
}

// New builds the topology. Receivers are attached afterwards with
// Host.SetReceiver.
func New(cfg Config) (*Network, error) {
	cfg.applyDefaults()
	if cfg.Hosts < 2 {
		return nil, fmt.Errorf("netsim: need at least 2 hosts, got %d", cfg.Hosts)
	}
	n := &Network{cfg: cfg}
	if cfg.Topology.Leaves > 0 {
		if err := n.buildLeafSpine(cfg); err != nil {
			return nil, err
		}
	} else {
		n.sw = &Switch{}
		for i := 0; i < cfg.Hosts; i++ {
			h := &Host{ID: i, net: n}
			// Downlink: switch -> host i.
			down := NewLink(fmt.Sprintf("down-%d", i), cfg.LinkRate, cfg.PropDelay, cfg.SwitchSched(), h)
			n.sw.downlinks = append(n.sw.downlinks, down)
			n.downlinks = append(n.downlinks, down)
			// Uplink: host i -> switch.
			h.Uplink = NewLink(fmt.Sprintf("up-%d", i), cfg.LinkRate, cfg.PropDelay, cfg.SwitchSched(), n.sw)
			n.hosts = append(n.hosts, h)
		}
	}
	var id uint32
	n.ForEachLink(func(l *Link) { l.id = id; id++ })
	return n, nil
}

// Hosts reports the number of hosts.
func (n *Network) Hosts() int { return len(n.hosts) }

// Host returns host i.
func (n *Network) Host(i int) *Host { return n.hosts[i] }

// Downlink returns the last-hop egress port toward host i, for occupancy
// instrumentation and drop accounting.
func (n *Network) Downlink(i int) *Link { return n.downlinks[i] }

// LinkByName returns the named link, or nil. The index is built on first
// use from ForEachLink's deterministic order.
func (n *Network) LinkByName(name string) *Link {
	if n.byName == nil {
		n.byName = make(map[string]*Link)
		n.ForEachLink(func(l *Link) { n.byName[l.Name] = l })
	}
	return n.byName[name]
}

// NextPacketID allocates a unique packet id.
func (n *Network) NextPacketID() uint64 {
	n.nextID++
	return n.nextID
}

// MinRTT returns the no-queuing round-trip time for a data packet of size
// dataBytes answered by an ACK, for the longest path in the topology
// (cross-leaf in a leaf-spine fabric).
func (n *Network) MinRTT(dataBytes int) sim.Duration {
	r := n.cfg.LinkRate
	hops := sim.Duration(2)
	if len(n.leaves) > 0 {
		hops = 4
	}
	return hops*(r.TxTime(dataBytes)+r.TxTime(AckBytes)) + 2*hops*n.cfg.PropDelay
}

// HandlePacket implements Handler: deliver to the attached receiver.
func (h *Host) HandlePacket(s *sim.Simulator, p *Packet) {
	if h.recv == nil {
		return
	}
	h.recv.HandlePacket(s, p)
}

// SetReceiver attaches the host's packet consumer (the transport demux).
func (h *Host) SetReceiver(r Handler) { h.recv = r }

// Send transmits p from this host via its uplink. p.Src is set to the
// host's id.
func (h *Host) Send(s *sim.Simulator, p *Packet) {
	p.Src = h.ID
	if p.ID == 0 {
		p.ID = h.net.NextPacketID()
	}
	h.Uplink.Send(s, p)
}

// ForEachLink visits every link in a fixed order — host uplinks, then
// last-hop downlinks, then core links — so instrumentation wired through
// it (tracing, metrics columns) is deterministic run to run.
func (n *Network) ForEachLink(f func(*Link)) {
	for _, h := range n.hosts {
		f(h.Uplink)
	}
	for _, d := range n.downlinks {
		f(d)
	}
	for _, c := range n.CoreLinks() {
		f(c)
	}
}

// SetTracer points every link's tracer at tr (nil detaches).
func (n *Network) SetTracer(tr *obs.Tracer) {
	n.ForEachLink(func(l *Link) { l.Trace = tr })
}

// MetricsSampler returns an obs.Sampler reporting, for every egress port,
// the scheduler's queued bytes and packets and the cumulative drop count —
// the per-port WFQ occupancy the paper's queueing analysis reasons about.
// The ports are fixed once the network is built, so their metric names are
// built here, once, and a tick allocates nothing.
func (n *Network) MetricsSampler() obs.Sampler {
	type port struct {
		l                 *Link
		bytes, pkts, drop string
	}
	var ports []port
	n.ForEachLink(func(l *Link) {
		ports = append(ports, port{l, "q." + l.Name + ".bytes", "q." + l.Name + ".pkts", "drop." + l.Name + ".pkts"})
	})
	return func(now sim.Time, emit func(string, float64)) {
		for i := range ports {
			p := &ports[i]
			st := p.l.Stats(now)
			emit(p.bytes, float64(st.QueuedBytes))
			emit(p.pkts, float64(st.QueuedPackets))
			emit(p.drop, float64(st.DropPackets))
		}
	}
}

// Settle runs every link's transmitter through the end of instant t (see
// Link). A run that has stopped at t calls it before it reads a counter or
// writes a trace: the free moments at t belong to the instant that just
// ended, and nothing else would run them.
func (n *Network) Settle(t sim.Time) {
	n.ForEachLink(func(l *Link) { l.settle(t, true) })
}

// TotalDropped sums packet drops across all links in the network,
// including core links in a leaf-spine fabric.
func (n *Network) TotalDropped(now sim.Time) (packets, bytes int64) {
	n.ForEachLink(func(l *Link) {
		st := l.Stats(now)
		packets += st.DropPackets
		bytes += st.DropBytes
	})
	return packets, bytes
}

// TotalDelivered sums bytes transmitted on last-hop downlinks (traffic
// that reached hosts).
func (n *Network) TotalDelivered(now sim.Time) (packets, bytes int64) {
	for _, d := range n.downlinks {
		st := d.Stats(now)
		packets += st.TxPackets
		bytes += st.TxBytes
	}
	return packets, bytes
}
