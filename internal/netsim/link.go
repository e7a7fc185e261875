package netsim

import (
	"math/rand"

	"aequitas/internal/obs"
	"aequitas/internal/sim"
	"aequitas/internal/wfq"
)

// Handler consumes packets delivered by a link.
type Handler interface {
	HandlePacket(s *sim.Simulator, p *Packet)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(s *sim.Simulator, p *Packet)

// HandlePacket implements Handler.
func (f HandlerFunc) HandlePacket(s *sim.Simulator, p *Packet) { f(s, p) }

// LinkStats counts traffic through a link.
type LinkStats struct {
	TxPackets   int64
	TxBytes     int64
	DropPackets int64
	DropBytes   int64
	// FaultDropPackets/FaultDropBytes count packets blackholed while the
	// link was down or lost to an injected random-loss rate. They are kept
	// separate from DropPackets (buffer overflow) so congestion and
	// injected chaos stay distinguishable in reports.
	FaultDropPackets int64
	FaultDropBytes   int64
	// BusyTime accumulates serialisation time, for utilisation reports.
	BusyTime sim.Duration
}

// Link is a unidirectional link with an egress scheduler at its sending
// side, a fixed line rate, and a propagation delay. Transmission is
// store-and-forward: a packet occupies the transmitter for Size/Rate, then
// arrives at the far end Prop later. Propagation is pipelined — the next
// packet starts serialising as soon as the previous one leaves the
// transmitter.
type Link struct {
	Name  string
	Rate  sim.Rate
	Prop  sim.Duration
	Sched wfq.Scheduler
	Stats LinkStats

	dst  Handler
	busy bool

	// Fault-injection state (internal/faults drives it). While down the
	// link blackholes arrivals and pauses its transmitter; lossRate drops
	// each arriving packet independently with that probability, drawn
	// from lossRNG (a dedicated stream, so the main simulation RNG
	// sequence is identical with and without loss).
	down     bool
	lossRate float64
	lossRNG  *rand.Rand

	// OnDrop, when set, is invoked for every packet the scheduler drops,
	// letting transports implement loss detection hooks and tests count
	// what was lost.
	OnDrop func(s *sim.Simulator, p *Packet)

	// Trace, when set, receives per-hop queue-residency and drop events.
	// nil disables tracing at zero cost on the transmit path.
	Trace *obs.Tracer

	// Attr, when set, receives tail-packet queue residencies for latency
	// attribution; Audit, when set, checks every data packet's residency
	// against its class bound. Both nil-disable at zero transmit-path
	// cost, like Trace.
	Attr  *obs.Attributor
	Audit *obs.Auditor

	// tx is the reusable serialisation-done event: a link serialises at
	// most one packet at a time, so a single node suffices and the transmit
	// path schedules no closures. Arrival events overlap (propagation is
	// pipelined), so they come from freeArr, a per-link free list.
	tx      txDoneEvent
	freeArr []*arrivalEvent

	txMemo txMemo
}

// txMemo remembers the serialisation times of the two packet sizes a link
// sent last. A link carries little but full-MTU data packets and acks, so
// Rate.TxTime's 128-bit divide runs once per size instead of once per
// packet, and the answer is the one TxTime gave. rate is part of the key
// because Link.Rate is an exported field. key is size+1, so the zero value
// is two empty entries.
type txMemo struct {
	rate sim.Rate
	key  [2]int
	d    [2]sim.Duration
}

// txTime is l.Rate.TxTime(size).
func (l *Link) txTime(size int) sim.Duration {
	m := &l.txMemo
	if m.rate != l.Rate {
		*m = txMemo{rate: l.Rate}
	}
	switch size + 1 {
	case m.key[0]:
		return m.d[0]
	case m.key[1]:
		return m.d[1]
	}
	d := l.Rate.TxTime(size)
	m.key[1], m.d[1] = m.key[0], m.d[0]
	m.key[0], m.d[0] = size+1, d
	return d
}

// txDoneEvent fires when the transmitter finishes serialising l.tx's
// packet: release the transmitter, start the packet's propagation, and pull
// the next packet from the scheduler.
type txDoneEvent struct {
	l *Link
	p *Packet
}

func (t *txDoneEvent) Run(s *sim.Simulator) {
	l, p := t.l, t.p
	t.p = nil
	l.busy = false
	a := l.allocArrival()
	a.p = p
	s.After(l.Prop, a)
	l.kick(s)
}

// arrivalEvent delivers a packet to the link's far end after propagation.
type arrivalEvent struct {
	l *Link
	p *Packet
}

func (a *arrivalEvent) Run(s *sim.Simulator) {
	l, p := a.l, a.p
	a.p = nil
	l.freeArr = append(l.freeArr, a)
	l.dst.HandlePacket(s, p)
}

func (l *Link) allocArrival() *arrivalEvent {
	if k := len(l.freeArr); k > 0 {
		a := l.freeArr[k-1]
		l.freeArr[k-1] = nil
		l.freeArr = l.freeArr[:k-1]
		return a
	}
	return &arrivalEvent{l: l}
}

// NewLink creates a link delivering packets to dst.
func NewLink(name string, rate sim.Rate, prop sim.Duration, sched wfq.Scheduler, dst Handler) *Link {
	l := &Link{Name: name, Rate: rate, Prop: prop, Sched: sched, dst: dst}
	l.tx.l = l
	return l
}

// Send enqueues p for transmission, applying the scheduler's drop policy.
// Packets arriving while the link is down, or losing the random-loss
// draw, vanish silently — no OnDrop notification, matching real blackhole
// and corruption semantics; recovery must come from timeouts upstream.
func (l *Link) Send(s *sim.Simulator, p *Packet) {
	if l.down || (l.lossRate > 0 && l.lossRNG.Float64() < l.lossRate) {
		l.Stats.FaultDropPackets++
		l.Stats.FaultDropBytes += int64(p.Size)
		if l.Trace != nil {
			l.Trace.Drop(s.Now(), p.MsgID, l.Name, int(p.Class), p.Size)
		}
		return
	}
	p.EnqueuedAt = s.Now()
	dropped := l.Sched.Enqueue(p)
	for _, d := range dropped {
		dp := d.(*Packet)
		l.Stats.DropPackets++
		l.Stats.DropBytes += int64(dp.Size)
		if l.Trace != nil {
			l.Trace.Drop(s.Now(), dp.MsgID, l.Name, int(dp.Class), dp.Size)
		}
		if l.OnDrop != nil {
			l.OnDrop(s, dp)
		}
	}
	l.kick(s)
}

// kick starts the transmitter if it is idle, up, and work is queued.
func (l *Link) kick(s *sim.Simulator) {
	if l.busy || l.down {
		return
	}
	it := l.Sched.Dequeue()
	if it == nil {
		return
	}
	p := it.(*Packet)
	l.busy = true
	if !p.Ack && (l.Trace != nil || l.Audit != nil || l.Attr != nil) {
		resid := s.Now() - p.EnqueuedAt
		if l.Trace != nil {
			l.Trace.Hop(s.Now(), p.MsgID, l.Name, int(p.Class), p.Size,
				resid, l.Sched.QueuedBytes())
		}
		if l.Audit != nil {
			l.Audit.Hop(s.Now(), p.MsgID, l.Name, int(p.Class), resid)
		}
		if l.Attr != nil && p.Tail {
			l.Attr.TailHop(s.Now(), p.Src, p.MsgID, resid)
		}
	}
	tx := l.txTime(p.Size)
	l.Stats.BusyTime += tx
	l.Stats.TxPackets++
	l.Stats.TxBytes += int64(p.Size)
	// Arrival is scheduled from the tx-done event after propagation;
	// serialisation of the next packet overlaps with this packet's flight
	// time.
	l.tx.p = p
	s.After(tx, &l.tx)
}

// SetDown flips the link's fault state. Going down freezes the egress
// queue (packets mid-serialisation finish and propagate); coming back up
// restarts the transmitter on whatever survived in the queue.
func (l *Link) SetDown(s *sim.Simulator, down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if !down {
		l.kick(s)
	}
}

// Down reports whether the link is currently failed.
func (l *Link) Down() bool { return l.down }

// SetLoss sets the link's independent per-packet random loss probability;
// rate 0 clears it. rng supplies the draws and may be nil only when rate
// is 0.
func (l *Link) SetLoss(rate float64, rng *rand.Rand) {
	l.lossRate = rate
	l.lossRNG = rng
}

// QueuedBytes reports bytes currently waiting in the egress scheduler.
func (l *Link) QueuedBytes() int { return l.Sched.QueuedBytes() }

// Utilization reports the fraction of the interval [0, now] the
// transmitter spent serialising packets.
func (l *Link) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(l.Stats.BusyTime) / float64(now)
}
