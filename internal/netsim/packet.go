// Package netsim is the packet-level datacenter network simulator: hosts
// with NIC egress queues, full-duplex links with serialisation and
// propagation delay, and an output-queued switch whose egress ports run a
// pluggable scheduling discipline (WFQ by default). It plays the role of
// the YAPS-based simulator in the paper's evaluation (§6.1).
//
// The topology is a single-switch star, where every host connects to the
// switch with one full-duplex link, or a two-tier leaf-spine fabric
// (Topology). Overload is created at switch egress ports (many-to-one),
// host uplinks or, in a leaf-spine fabric, leaf-spine links, which is where
// the paper's WFQ analysis applies. The paper's experiments run on stars
// (3-node, 33-node, 144-node all-to-all).
package netsim

import (
	"fmt"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// Packet is the unit transferred by the network. It implements wfq.Item.
type Packet struct {
	ID    uint64
	Src   int // sending host id
	Dst   int // receiving host id
	Class qos.Class
	Size  int // bytes on the wire, headers included

	// Kind distinguishes protocol-specific control packets (baseline
	// transports use it for grants, completion notices, etc.). Zero for
	// ordinary data/ACK traffic.
	Kind uint8

	// Transport fields.
	Ack     bool     // acknowledgement (reverse direction)
	MsgID   uint64   // message this packet belongs to
	Seq     int64    // first payload byte offset within the message
	Payload int      // payload bytes carried
	SentAt  sim.Time // transmission timestamp for RTT estimation
	AckSeq  int64    // for ACKs: cumulative bytes acknowledged

	// Gen is the sender's stream epoch for this (src, class) connection.
	// It is bumped when transport state is torn down after a host crash,
	// so packets and acks from before the crash cannot corrupt the
	// rebuilt streams. Zero everywhere when no faults are injected.
	Gen uint32

	// Urg is the urgency metric consumed by priority-based disciplines
	// (pFabric, Homa): typically the message's remaining size in bytes at
	// transmission time. Lower is more urgent.
	Urg int64

	// Deadline is used by deadline-aware baselines (D3, PDQ).
	Deadline sim.Time

	// EnqueuedAt is stamped by Link.Send when the packet enters an egress
	// scheduler, so its queue residency can be traced when it starts
	// serialising, at a free moment the link may run later (see Link).
	EnqueuedAt sim.Time

	// Tail marks the packet carrying its message's last payload byte.
	// The transport sets it only when a tracer is attached, so the tracer
	// can charge this packet's per-hop queue residencies (NIC, then
	// switches) to the message's RNL.
	Tail bool
}

// SizeBytes implements wfq.Item.
func (p *Packet) SizeBytes() int { return p.Size }

// QoS implements wfq.Item.
func (p *Packet) QoS() int { return int(p.Class) }

// Urgency implements wfq.Item.
func (p *Packet) Urgency() int64 { return p.Urg }

func (p *Packet) String() string {
	kind := "data"
	if p.Ack {
		kind = "ack"
	}
	return fmt.Sprintf("pkt{%d %s %d->%d %v msg=%d seq=%d size=%d}",
		p.ID, kind, p.Src, p.Dst, p.Class, p.MsgID, p.Seq, p.Size)
}

// Header sizes, matching the usual Ethernet+IP+TCP framing the paper's
// 100 Gbps numbers assume.
const (
	HeaderBytes = 64   // per-packet header overhead on the wire
	MTU         = 1500 // maximum wire size; payload per full packet is MTU-HeaderBytes
	AckBytes    = 64   // ACK wire size
)

// MaxPayload is the payload carried by a full-size packet.
const MaxPayload = MTU - HeaderBytes

// MTUsFor returns the number of MTUs an RPC of payloadBytes occupies,
// rounding up, minimum 1. Algorithm 1's size-normalised SLO targets and
// multiplicative decrease both use this unit.
func MTUsFor(payloadBytes int64) int64 {
	if payloadBytes <= 0 {
		return 1
	}
	return (payloadBytes + MaxPayload - 1) / MaxPayload
}
