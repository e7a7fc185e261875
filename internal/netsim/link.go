package netsim

import (
	"math/rand"

	"aequitas/internal/fifo"
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
	// QueuedBytes and QueuedPackets are what waits in the scheduler.
	QueuedBytes, QueuedPackets int
}

// Link is a unidirectional link with an egress scheduler at its sending
// side, a fixed line rate, and a propagation delay. Transmission is
// store-and-forward: a packet occupies the transmitter for Size/Rate, then
// arrives at the far end Prop later. Propagation is pipelined — the next
// packet starts serialising as soon as the previous one leaves the
// transmitter.
//
// Nothing fires when the transmitter frees. The link keeps the moment it
// next frees and runs the free moments that came before whenever it is
// next used (Send, SetDown, a delivery, Stats), each taking the
// scheduler's next packet exactly where an event would have. A free moment
// comes last in its instant (internal/sim's tie order), so a packet that
// arrives as the transmitter frees competes for it. With Prop == 0 a
// delivery is its transmitter's free moment and the free moment comes
// first: a packet sent at that instant does not compete.
//
// A packet's one kernel event is its delivery. Deliveries are FIFO, so
// the link is a sim.Source that keeps the first of them, flight.Front().at,
// as its firing time: it wakes when a packet starts into an empty flight
// list, and each delivery wakes it for the next or idles it. Sources rank
// first in their instant, the link by its place in ForEachLink's order.
type Link struct {
	Name  string
	Rate  sim.Rate
	Prop  sim.Duration
	Sched wfq.Scheduler
	stats LinkStats

	dst Handler
	id  uint32

	// busy is set while a packet serialises, until freeAt. flight holds
	// the packets started and not delivered, in start order; deliver is
	// the link's source, which delivers the first of them.
	busy    bool
	freeAt  sim.Time
	flight  fifo.Queue[inFlight]
	deliver delivery

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

	// Trace, when set, receives every data packet's queue residency and
	// every drop. nil costs one check on the transmit path.
	Trace *obs.Tracer

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

// inFlight is a packet between the start of its serialisation and its
// delivery at at.
type inFlight struct {
	p  *Packet
	at sim.Time
}

// delivery is the link's source in the kernel: id is its registration in
// s, made when the link is first woken there.
type delivery struct {
	l  *Link
	s  *sim.Simulator
	id uint32
}

// Fire delivers the link's first packet in flight, after waking the link
// for the next one or idling it.
func (d *delivery) Fire(s *sim.Simulator) {
	l := d.l
	l.settle(s.Now(), false)
	p := l.flight.Pop().p
	if l.flight.Len() > 0 {
		s.Wake(d.id, l.flight.Front().at)
	} else {
		s.Idle(d.id)
	}
	l.dst.HandlePacket(s, p)
}

// NewLink creates a link delivering packets to dst.
func NewLink(name string, rate sim.Rate, prop sim.Duration, sched wfq.Scheduler, dst Handler) *Link {
	l := &Link{Name: name, Rate: rate, Prop: prop, Sched: sched, dst: dst}
	l.deliver.l = l
	return l
}

// Send enqueues p for transmission, applying the scheduler's drop policy.
// Packets arriving while the link is down, or losing the random-loss
// draw, vanish silently — no OnDrop notification, matching real blackhole
// and corruption semantics; recovery must come from timeouts upstream.
func (l *Link) Send(s *sim.Simulator, p *Packet) {
	if l.down || (l.lossRate > 0 && l.lossRNG.Float64() < l.lossRate) {
		l.stats.FaultDropPackets++
		l.stats.FaultDropBytes += int64(p.Size)
		l.Trace.Drop(s.Now(), p.MsgID, l.Name, int(p.Class), p.Size)
		return
	}
	l.settle(s.Now(), false)
	p.EnqueuedAt = s.Now()
	dropped := l.Sched.Enqueue(p)
	for _, d := range dropped {
		dp := d.(*Packet)
		l.stats.DropPackets++
		l.stats.DropBytes += int64(dp.Size)
		l.Trace.Drop(s.Now(), dp.MsgID, l.Name, int(dp.Class), dp.Size)
		if l.OnDrop != nil {
			l.OnDrop(s, dp)
		}
	}
	l.kick(s)
}

// kick starts the transmitter now if it is idle, and wakes the link if
// the packet started is the only one in flight.
func (l *Link) kick(s *sim.Simulator) {
	if !l.busy && l.start(s.Now()) && l.flight.Len() == 1 {
		d := &l.deliver
		if d.s != s {
			d.s, d.id = s, s.Register(d, l.id)
		}
		s.Wake(d.id, l.flight.Front().at)
	}
}

// settle runs the transmitter's free moments before now, and those at now
// if through is set or the link has no propagation delay (see Link).
func (l *Link) settle(now sim.Time, through bool) {
	through = through || l.Prop == 0
	for l.busy && (l.freeAt < now || through && l.freeAt == now) {
		l.busy = false
		l.start(l.freeAt)
	}
}

// start serialises the scheduler's next packet from t, if the link is up
// and a packet waits, and reports whether it did.
func (l *Link) start(t sim.Time) bool {
	if l.down {
		return false
	}
	it := l.Sched.Dequeue()
	if it == nil {
		return false
	}
	p := it.(*Packet)
	if !p.Ack && l.Trace != nil {
		l.Trace.Hop(t, p.Src, p.MsgID, p.Tail, l.Name, int(p.Class), p.Size,
			t-p.EnqueuedAt, l.Sched.QueuedBytes())
	}
	tx := l.txTime(p.Size)
	l.stats.BusyTime += tx
	l.stats.TxPackets++
	l.stats.TxBytes += int64(p.Size)
	l.busy, l.freeAt = true, t.Add(tx)
	l.flight.Push(inFlight{p: p, at: l.freeAt.Add(l.Prop)})
	return true
}

// SetDown flips the link's fault state. Going down freezes the egress
// queue (packets mid-serialisation finish and propagate); coming back up
// restarts the transmitter on whatever survived in the queue.
func (l *Link) SetDown(s *sim.Simulator, down bool) {
	if l.down == down {
		return
	}
	l.settle(s.Now(), false)
	l.down = down
	l.kick(s)
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

// Stats settles the transmitter to now and reports the link's counters and
// queue. It is the one way to read them: the transmitter frees lazily, so
// a read that did not settle first would miss packets the link has sent.
// Within a run it is the state at the start of instant now; a run that
// has stopped calls Network.Settle to close its last instant.
func (l *Link) Stats(now sim.Time) LinkStats {
	l.settle(now, false)
	st := l.stats
	st.QueuedBytes, st.QueuedPackets = l.Sched.QueuedBytes(), l.Sched.QueuedItems()
	return st
}
