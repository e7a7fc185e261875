package transport

import (
	"fmt"

	"aequitas/internal/fifo"
	"aequitas/internal/netsim"
	"aequitas/internal/obs"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// Message is a transport-level message: the payload of one RPC direction.
type Message struct {
	ID    uint64
	Dst   int
	Class qos.Class
	Bytes int64
	// Deadline propagates to packets for deadline-aware baselines; zero
	// means none.
	Deadline sim.Time
	// OnComplete fires when the last payload byte has been acknowledged.
	OnComplete func(s *sim.Simulator, m *Message)
	// OnFail fires when the connection carrying the message is torn down
	// before completion (the peer crashed); the message will never
	// complete. At most one of OnComplete/OnFail fires.
	OnFail func(s *sim.Simulator, m *Message)
	// Ctx is the sender's own record of the message, which the transport
	// never reads: it lets OnComplete and OnFail be plain functions that
	// find their state through m instead of closures allocated per message.
	Ctx any

	start, end int64 // byte range within the connection stream
	// enqueued marks that the first-packet enqueue was traced, so an RTO
	// rewind does not trace it twice.
	enqueued bool
}

// Config parameterises an Endpoint.
type Config struct {
	// NewCC builds one congestion controller per connection. Required.
	NewCC func() CC
	// RTOMin floors the retransmission timeout (default 100 µs).
	RTOMin sim.Duration
	// Trace, when set, receives each message's first-packet enqueue, its
	// tail-packet emissions and its pacing stalls, and tail packets are
	// marked for per-hop residency accounting. nil costs one check per
	// packet sent.
	Trace *obs.Tracer
}

func (c *Config) applyDefaults() {
	if c.RTOMin == 0 {
		c.RTOMin = 100 * sim.Microsecond
	}
}

// initialRTT seeds a connection's smoothed RTT estimate before its first
// sample.
const initialRTT = 10 * sim.Microsecond

// Stats counts endpoint-wide transport activity.
type Stats struct {
	MsgsSent      int64
	MsgsCompleted int64
	BytesAcked    int64
	Retransmits   int64
	RTOFires      int64
}

// Endpoint is one host's transport stack: it demultiplexes incoming
// packets and maintains one connection per (peer, QoS class), mirroring
// the paper's prototype where an RPC channel maps to per-QoS sockets
// (§6.11).
type Endpoint struct {
	host  *netsim.Host
	net   *netsim.Network
	cfg   Config
	conns table[conn]
	recvs table[rcvState]
	Stats Stats

	// down marks a crashed endpoint: Send and HandlePacket become no-ops
	// until Restart. gen is the stream epoch stamped on every outgoing
	// data packet; it bumps whenever connection state is discarded
	// (Crash, ResetPeer) so stale packets and acks from before the
	// teardown cannot corrupt rebuilt streams. Both stay zero when no
	// faults are injected.
	down bool
	gen  uint32
}

// table indexes per-stream state by [peer][class]: one row per host of the
// network, grown to the highest class seen toward that peer. Every data
// packet and every ack looks its stream up, so the lookup is two bounds
// checks and two loads rather than a hash, and walking a row visits a
// peer's streams in class order.
type table[T any] [][]*T

// get returns the state for (peer, class), or nil if there is none — also
// for a peer or class the table has no cell for.
func (t table[T]) get(peer int, class qos.Class) *T {
	if uint(peer) < uint(len(t)) {
		if row := t[peer]; uint(class) < uint(len(row)) {
			return row[class]
		}
	}
	return nil
}

// set stores v for (peer, class); peer must be a host of the network.
func (t table[T]) set(peer int, class qos.Class, v *T) {
	for len(t[peer]) <= int(class) {
		t[peer] = append(t[peer], nil)
	}
	t[peer][class] = v
}

// NewEndpoint attaches a transport to host, registering it as the host's
// packet receiver.
func NewEndpoint(net *netsim.Network, host *netsim.Host, cfg Config) *Endpoint {
	cfg.applyDefaults()
	if cfg.NewCC == nil {
		panic("transport: Config.NewCC is required")
	}
	e := &Endpoint{
		host:  host,
		net:   net,
		cfg:   cfg,
		conns: make(table[conn], net.Hosts()),
		recvs: make(table[rcvState], net.Hosts()),
	}
	host.SetReceiver(e)
	return e
}

// Host returns the attached host.
func (e *Endpoint) Host() *netsim.Host { return e.host }

// Send queues m for transmission.
func (e *Endpoint) Send(s *sim.Simulator, m *Message) {
	if m.Bytes <= 0 {
		panic(fmt.Sprintf("transport: message %d has %d bytes", m.ID, m.Bytes))
	}
	if m.Dst == e.host.ID {
		panic("transport: message to self")
	}
	if e.down {
		// Crashed host: the message vanishes. The RPC stack is down too
		// and does not issue, so this is defensive.
		return
	}
	c := e.conn(m.Dst, m.Class)
	m.start = c.writeEnd
	m.end = m.start + m.Bytes
	c.writeEnd = m.end
	c.msgs.Push(m)
	e.Stats.MsgsSent++
	c.trySend(s)
}

// QueuedBytes reports unacknowledged bytes buffered toward peer on class,
// including bytes not yet transmitted (the host-side queuing that RNL
// captures).
func (e *Endpoint) QueuedBytes(peer int, class qos.Class) int64 {
	c := e.conns.get(peer, class)
	if c == nil {
		return 0
	}
	return c.writeEnd - c.cumAck
}

func (e *Endpoint) conn(peer int, class qos.Class) *conn {
	c := e.conns.get(peer, class)
	if c == nil {
		c = &conn{
			ep:    e,
			peer:  peer,
			class: class,
			cc:    e.cfg.NewCC(),
			srtt:  initialRTT,
			gen:   e.gen,
		}
		c.rtoEv.c = c
		c.paceEv.c = c
		e.conns.set(peer, class, c)
	}
	return c
}

// Crash simulates this host failing: all connection and receive state is
// discarded without callbacks (in-flight messages are simply lost — the
// crashed host's RPC layer clears its own accounting) and the endpoint
// goes down, ignoring packets and sends until Restart.
func (e *Endpoint) Crash(s *sim.Simulator) {
	e.down = true
	e.gen++
	for peer, row := range e.conns {
		for _, c := range row {
			if c != nil {
				c.teardown()
			}
		}
		clear(row)
		clear(e.recvs[peer])
	}
}

// Restart brings a crashed endpoint back with empty transport state.
func (e *Endpoint) Restart(s *sim.Simulator) { e.down = false }

// Down reports whether the endpoint is crashed.
func (e *Endpoint) Down() bool { return e.down }

// ResetPeer discards connection and receive state toward peer (whose
// host crashed): timers are cancelled, the stream epoch bumps so stale
// acks are ignored, and each incomplete outgoing message's OnFail fires
// so the RPC layer can retry or abandon it. Connections are visited in
// class order, keeping callback order deterministic.
func (e *Endpoint) ResetPeer(s *sim.Simulator, peer int) {
	e.gen++
	var failed []*Message
	for _, c := range e.conns[peer] {
		if c != nil {
			for c.msgs.Len() > 0 {
				failed = append(failed, c.msgs.Pop())
			}
			c.teardown()
		}
	}
	clear(e.conns[peer])
	clear(e.recvs[peer])
	for _, m := range failed {
		if m.OnFail != nil {
			m.OnFail(s, m)
		}
	}
}

// ForEachConn visits every sender-side connection in deterministic
// (peer, class) order with its current congestion window (packets) and
// smoothed RTT.
func (e *Endpoint) ForEachConn(f func(peer int, class qos.Class, cwndPkts float64, srtt sim.Duration)) {
	for peer, row := range e.conns {
		for class, c := range row {
			if c != nil {
				f(peer, qos.Class(class), c.cc.Window(), c.srtt)
			}
		}
	}
}

// MetricsSampler returns an obs.Sampler reporting cwnd (packets) and
// smoothed RTT (µs) for every live connection of this endpoint. A stream's
// two metric names are built the first time it is reported and kept, so a
// tick with no new stream allocates nothing.
func (e *Endpoint) MetricsSampler() obs.Sampler {
	type names struct{ cwnd, srtt string }
	cache := make(table[names], len(e.conns))
	return func(now sim.Time, emit func(string, float64)) {
		e.ForEachConn(func(peer int, class qos.Class, cwnd float64, srtt sim.Duration) {
			nm := cache.get(peer, class)
			if nm == nil {
				key := fmt.Sprintf("h%d.d%d.q%d", e.host.ID, peer, int(class))
				nm = &names{"cwnd." + key, "srtt_us." + key}
				cache.set(peer, class, nm)
			}
			emit(nm.cwnd, cwnd)
			emit(nm.srtt, srtt.Micros())
		})
	}
}

// HandlePacket implements netsim.Handler. The endpoint is the terminal
// consumer of every packet delivered to it, so the packet is recycled into
// the network's pool once processed; nothing on the receive path may retain
// it past this call.
func (e *Endpoint) HandlePacket(s *sim.Simulator, p *Packet) {
	if e.down {
		e.net.FreePacket(p)
		return
	}
	if p.Ack {
		if c := e.conns.get(p.Src, p.Class); c != nil {
			c.onAck(s, p)
		}
	} else {
		e.onData(s, p)
	}
	e.net.FreePacket(p)
}

// Packet aliases the netsim packet type for the package's public surface.
type Packet = netsim.Packet

// conn is the sender side of one (peer, class) byte stream.
type conn struct {
	ep    *Endpoint
	peer  int
	class qos.Class
	cc    CC

	// msgs is the FIFO of incomplete messages by stream offset.
	msgs     fifo.Queue[*Message]
	writeEnd int64 // total bytes queued to the stream
	cumAck   int64 // cumulative acknowledged bytes
	nextSend int64 // next byte offset to (re)transmit

	srtt    sim.Duration
	rttvar  sim.Duration
	backoff int // RTO exponential backoff shift
	// gen is the stream epoch this connection was created under; stamped
	// on every outgoing data packet and compared on incoming acks, so
	// acks predating a crash-induced teardown cannot complete messages
	// on a rebuilt connection.
	gen uint32

	rtoTimer    sim.Handle
	paceTimer   sim.Handle
	nextAllowed sim.Time // pacing gate for sub-packet windows
	// rtoAt is the logical retransmission deadline (0 = disarmed). Acks
	// move it forward without touching the scheduled timer; when the timer
	// fires early it re-arms itself at rtoAt. This keeps RTO maintenance to
	// one event-queue node per connection instead of a cancel+insert per
	// ack, which would bloat the event heap with dead nodes.
	rtoAt sim.Time

	// stalled/stallFrom track an open pacing-gate stall for latency
	// attribution; maintained only when cfg.Trace is set.
	stalled   bool
	stallFrom sim.Time

	// rtoEv/paceEv are the connection's reusable timer events, so arming a
	// timer schedules no closure. Each timer has at most one pending
	// instance (armRTO and schedulePace check Pending first).
	rtoEv  rtoEvent
	paceEv paceEvent
}

// rtoEvent and paceEvent adapt the connection's timer callbacks to
// sim.Event without per-arm closure allocations.
type rtoEvent struct{ c *conn }

func (e *rtoEvent) Run(s *sim.Simulator) { e.c.onRTO(s) }

type paceEvent struct{ c *conn }

func (e *paceEvent) Run(s *sim.Simulator) { e.c.trySend(s) }

// windowBytes converts the CC window to bytes.
func (c *conn) windowBytes() int64 {
	w := c.cc.Window()
	if w < 0 {
		w = 0
	}
	return int64(w * float64(netsim.MaxPayload))
}

func (c *conn) inflight() int64 { return c.nextSend - c.cumAck }

// trySend transmits as much of the stream as the window and pacing gate
// permit.
func (c *conn) trySend(s *sim.Simulator) {
	for c.nextSend < c.writeEnd {
		inflight := c.inflight()
		wnd := c.windowBytes()
		if inflight > 0 && inflight >= wnd {
			return // window-limited; acks will restart us
		}
		if inflight == 0 && wnd < int64(netsim.MaxPayload) {
			// Sub-packet window: one packet at a time, paced.
			if s.Now() < c.nextAllowed {
				if c.ep.cfg.Trace != nil && !c.stalled {
					c.stalled = true
					c.stallFrom = s.Now()
				}
				c.schedulePace(s)
				return
			}
		}
		c.emit(s)
	}
}

// emit sends one packet starting at nextSend.
func (c *conn) emit(s *sim.Simulator) {
	payload := int64(netsim.MaxPayload)
	// Do not run past the end of the stream.
	if rem := c.writeEnd - c.nextSend; rem < payload {
		payload = rem
	}
	// Do not cross a message boundary, so that per-packet urgency and
	// deadline metadata are well defined.
	m := c.messageAt(c.nextSend)
	if m != nil {
		if rem := m.end - c.nextSend; rem < payload {
			payload = rem
		}
	}
	p := c.ep.net.AllocPacket()
	p.Dst = c.peer
	p.Class = c.class
	p.Size = int(payload) + netsim.HeaderBytes
	p.Seq = c.nextSend
	p.Payload = int(payload)
	p.SentAt = s.Now()
	p.Gen = c.gen
	if m != nil {
		p.MsgID = m.ID
		p.Urg = m.end - c.nextSend // remaining bytes: SRPT urgency
		p.Deadline = m.Deadline
		if tr := c.ep.cfg.Trace; tr != nil {
			// Close an open pacing stall before the first-enqueue stamp, so
			// a stall ending at the message's first packet lands in the
			// sender-side pacing bucket.
			if c.stalled {
				c.stalled = false
				tr.PaceStall(c.ep.host.ID, m.ID, s.Now()-c.stallFrom)
			}
			if !m.enqueued {
				m.enqueued = true
				tr.Enqueue(s.Now(), m.ID, c.ep.host.ID, c.peer, int(c.class), m.Bytes)
			}
			if c.nextSend+payload == m.end {
				p.Tail = true
				tr.TailEmit(s.Now(), c.ep.host.ID, m.ID)
			}
		}
	}
	c.nextSend += payload
	// Pacing gate for the next packet when the window is sub-packet.
	if w := c.cc.Window(); w < 1 && w > 0 {
		gap := sim.Duration(float64(c.srtt) / w)
		c.nextAllowed = s.Now() + gap
	}
	c.ep.host.Send(s, p)
	c.armRTO(s)
}

// messageAt returns the incomplete message covering stream offset off.
func (c *conn) messageAt(off int64) *Message {
	for i := range c.msgs.Len() {
		if m := *c.msgs.At(i); off < m.end {
			if off >= m.start {
				return m
			}
			return nil
		}
	}
	return nil
}

func (c *conn) schedulePace(s *sim.Simulator) {
	if c.paceTimer.Pending() {
		return
	}
	delay := c.nextAllowed - s.Now()
	if delay < 0 {
		delay = 0
	}
	c.paceTimer = s.After(delay, &c.paceEv)
}

// teardown cancels the connection's timers; the caller discards it. No
// message callbacks fire here — Crash loses messages silently, ResetPeer
// collects them for OnFail.
func (c *conn) teardown() {
	c.rtoTimer.Cancel()
	c.paceTimer.Cancel()
	c.rtoAt = 0
	c.msgs = fifo.Queue[*Message]{}
}

// onAck processes a cumulative acknowledgement.
func (c *conn) onAck(s *sim.Simulator, p *Packet) {
	if p.Gen != c.gen {
		return // ack for a pre-crash stream epoch
	}
	rtt := s.Now() - p.SentAt
	c.updateRTT(rtt)
	if p.AckSeq <= c.cumAck {
		// Duplicate or stale; the RTO handles actual loss.
		c.cc.OnAck(s.Now(), rtt, 0)
		return
	}
	delta := p.AckSeq - c.cumAck
	c.cumAck = p.AckSeq
	if c.nextSend < c.cumAck {
		// Retransmission rewound nextSend below data the receiver
		// already has.
		c.nextSend = c.cumAck
	}
	c.ep.Stats.BytesAcked += delta
	c.backoff = 0
	ackedPkts := int((delta + netsim.MaxPayload - 1) / netsim.MaxPayload)
	c.cc.OnAck(s.Now(), rtt, ackedPkts)

	// Complete messages fully covered by the cumulative ack.
	for c.msgs.Len() > 0 && (*c.msgs.Front()).end <= c.cumAck {
		m := c.msgs.Pop()
		c.ep.Stats.MsgsCompleted++
		if m.OnComplete != nil {
			m.OnComplete(s, m)
		}
	}

	if c.inflight() > 0 {
		// Push the logical deadline out; the pending timer re-arms itself
		// on its next (now spurious) fire.
		c.rtoAt = s.Now() + c.rto()
	} else {
		c.rtoAt = 0
	}
	c.trySend(s)
}

func (c *conn) updateRTT(rtt sim.Duration) {
	if rtt <= 0 {
		return
	}
	if c.rttvar == 0 {
		c.rttvar = rtt / 2
		c.srtt = rtt
		return
	}
	diff := c.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

func (c *conn) rto() sim.Duration {
	d := c.srtt + 4*c.rttvar
	if d < c.ep.cfg.RTOMin {
		d = c.ep.cfg.RTOMin
	}
	shift := c.backoff
	if shift > 10 {
		shift = 10
	}
	return d << shift
}

func (c *conn) armRTO(s *sim.Simulator) {
	if c.rtoAt != 0 {
		return // already armed
	}
	c.rtoAt = s.Now() + c.rto()
	if !c.rtoTimer.Pending() {
		c.rtoTimer = s.At(c.rtoAt, &c.rtoEv)
	}
}

// onRTO implements go-back-N recovery: rewind to the cumulative ack and
// retransmit. Fires at the scheduled timer time, which may be earlier than
// the logical deadline rtoAt when acks extended it meanwhile; in that case
// the timer re-arms itself and nothing times out.
func (c *conn) onRTO(s *sim.Simulator) {
	if c.rtoAt == 0 || c.inflight() <= 0 {
		// Disarmed, or nothing outstanding: drop the logical deadline too,
		// so the next emit arms a fresh timer.
		c.rtoAt = 0
		return
	}
	if s.Now() < c.rtoAt {
		c.rtoTimer = s.At(c.rtoAt, &c.rtoEv)
		return
	}
	c.rtoAt = 0
	c.ep.Stats.RTOFires++
	c.ep.Stats.Retransmits++
	c.backoff++
	c.cc.OnRetransmit(s.Now())
	c.nextSend = c.cumAck
	c.armRTO(s)
	c.trySend(s)
}

// rcvState is the receiver side of one (peer, class) stream.
type rcvState struct {
	cumRecv int64
	ooo     map[int64]int // seq -> payload bytes received out of order
	// gen is the sender's stream epoch this state tracks. A packet with
	// a newer epoch means the sender rebuilt the stream after a crash:
	// restart from zero. Older epochs are stale and dropped.
	gen uint32
}

// onData handles an incoming data packet: advance the cumulative counter,
// buffer out-of-order segments, and acknowledge.
func (e *Endpoint) onData(s *sim.Simulator, p *Packet) {
	r := e.recvs.get(p.Src, p.Class)
	if r == nil {
		r = &rcvState{ooo: make(map[int64]int), gen: p.Gen}
		e.recvs.set(p.Src, p.Class, r)
	}
	if p.Gen != r.gen {
		if p.Gen < r.gen {
			return // stale pre-crash packet; no ack
		}
		// The sender rebuilt its stream: restart reassembly from zero.
		r.gen = p.Gen
		r.cumRecv = 0
		clear(r.ooo)
	}
	switch {
	case p.Seq == r.cumRecv:
		r.cumRecv += int64(p.Payload)
		// Drain any contiguous out-of-order segments.
		for {
			n, ok := r.ooo[r.cumRecv]
			if !ok {
				break
			}
			delete(r.ooo, r.cumRecv)
			r.cumRecv += int64(n)
		}
	case p.Seq > r.cumRecv:
		r.ooo[p.Seq] = p.Payload
	default:
		// Duplicate of already-received data; re-ack.
	}
	ack := e.net.AllocPacket()
	ack.Dst = p.Src
	ack.Class = p.Class
	ack.Size = netsim.AckBytes
	ack.Ack = true
	ack.AckSeq = r.cumRecv
	ack.SentAt = p.SentAt // echo for RTT measurement
	ack.MsgID = p.MsgID
	ack.Gen = p.Gen // echo the epoch so the sender can reject stale acks
	e.host.Send(s, ack)
}
