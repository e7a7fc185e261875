package baselines

import (
	"aequitas/internal/netsim"
	"aequitas/internal/qos"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// Packet kinds used by the Homa protocol machinery.
const (
	kindHomaGrant uint8 = iota + 1
	kindHomaDone
)

// HomaConfig parameterises the Homa transport.
type HomaConfig struct {
	// LineRate paces the receiver's grant clock (default 100 Gbps).
	LineRate sim.Rate
}

const (
	// rttBytes is the unscheduled window: bytes a sender may transmit
	// before receiving grants, and the receiver's outstanding-grant
	// budget (~one 100 Gbps × 2 µs BDP).
	rttBytes = 25 << 10
	// resendTimeout is the coarse loss-recovery timer.
	resendTimeout = 5 * sim.Millisecond
)

func (c *HomaConfig) applyDefaults() {
	if c.LineRate == 0 {
		c.LineRate = 100 * sim.Gbps
	}
}

// Homa is a receiver-driven transport (Montazeri et al., SIGCOMM 2018),
// simplified: senders blind-transmit up to rttBytes unscheduled, the
// receiver grants further bytes to the inbound message with the least
// remaining bytes (SRPT), and packets carry remaining-size urgency so the
// fabric's priority queues favour short messages. Loss recovery is a
// coarse full-tail resend timer; Homa's incast overcommit and explicit
// priority-level computation are elided.
type Homa struct {
	host *netsim.Host
	cfg  HomaConfig

	nextMsg uint64
	// Sender state by message id.
	out map[uint64]*homaOut
	// Receiver state by (src, msgID).
	in map[homaInKey]*homaIn
	// grantClock is true while the grant pacer is running.
	grantClock bool
}

type homaOut struct {
	m       *transport.Message
	sent    int64 // bytes transmitted at least once
	granted int64 // bytes allowed (unscheduled + grants)
	done    bool
	resend  sim.Handle
}

type homaInKey struct {
	src   int
	msgID uint64
}

type homaIn struct {
	total   int64
	got     int64
	granted int64
	class   int
	offsets map[int64]bool
}

// NewHoma attaches a Homa transport to host.
func NewHoma(host *netsim.Host, cfg HomaConfig) *Homa {
	cfg.applyDefaults()
	h := &Homa{
		host: host,
		cfg:  cfg,
		out:  make(map[uint64]*homaOut),
		in:   make(map[homaInKey]*homaIn),
	}
	host.SetReceiver(h)
	return h
}

// Send implements rpc.Sender.
func (h *Homa) Send(s *sim.Simulator, m *transport.Message) {
	h.nextMsg++
	id := h.nextMsg
	o := &homaOut{m: m, granted: min(m.Bytes, rttBytes)}
	h.out[id] = o
	h.transmit(s, id, o)
	h.armResend(s, id, o)
}

func (h *Homa) armResend(s *sim.Simulator, id uint64, o *homaOut) {
	o.resend.Cancel()
	// Jitter desynchronises concurrent senders: with a fixed timeout,
	// several messages thrashing one shallow switch queue can resend in
	// lockstep and repeat the identical drop pattern forever.
	delay := resendTimeout + sim.Duration(s.Rand().Int63n(int64(resendTimeout)))
	o.resend = s.AfterFunc(delay, func(s *sim.Simulator) {
		if o.done {
			return
		}
		// Coarse recovery: re-send everything granted; the receiver
		// deduplicates by offset.
		o.sent = 0
		h.transmit(s, id, o)
		h.armResend(s, id, o)
	})
}

// transmit sends all granted-but-unsent bytes as packets.
func (h *Homa) transmit(s *sim.Simulator, id uint64, o *homaOut) {
	for o.sent < o.granted {
		payload := min(int64(netsim.MaxPayload), o.granted-o.sent)
		p := &netsim.Packet{
			Dst:      o.m.Dst,
			Class:    o.m.Class,
			Size:     int(payload) + netsim.HeaderBytes,
			MsgID:    id,
			Seq:      o.sent,
			Payload:  int(payload),
			SentAt:   s.Now(),
			Urg:      o.m.Bytes - o.sent, // SRPT: remaining bytes
			AckSeq:   o.m.Bytes,          // carries total size for the receiver
			Deadline: o.m.Deadline,
		}
		o.sent += payload
		h.host.Send(s, p)
	}
}

// HandlePacket implements netsim.Handler.
func (h *Homa) HandlePacket(s *sim.Simulator, p *netsim.Packet) {
	switch p.Kind {
	case kindHomaGrant:
		h.onGrant(s, p)
	case kindHomaDone:
		h.onDone(s, p)
	default:
		h.onData(s, p)
	}
}

func (h *Homa) onData(s *sim.Simulator, p *netsim.Packet) {
	k := homaInKey{p.Src, p.MsgID}
	in, ok := h.in[k]
	if !ok {
		in = &homaIn{
			total:   p.AckSeq,
			granted: min(p.AckSeq, rttBytes),
			class:   int(p.Class),
			offsets: make(map[int64]bool),
		}
		h.in[k] = in
	}
	if !in.offsets[p.Seq] {
		in.offsets[p.Seq] = true
		in.got += int64(p.Payload)
	}
	if in.got >= in.total {
		// Message complete: notify the sender and retire.
		delete(h.in, k)
		h.host.Send(s, &netsim.Packet{
			Dst:   p.Src,
			Class: p.Class,
			Size:  netsim.AckBytes,
			Kind:  kindHomaDone,
			MsgID: p.MsgID,
		})
		return
	}
	h.startGrantClock(s)
}

// startGrantClock begins pacing grants at line rate while any inbound
// message still needs them.
func (h *Homa) startGrantClock(s *sim.Simulator) {
	if h.grantClock {
		return
	}
	h.grantClock = true
	h.grantTick(s)
}

func (h *Homa) grantTick(s *sim.Simulator) {
	// Pick the inbound message with the least remaining bytes that still
	// has ungranted bytes and an open grant budget.
	var bestKey homaInKey
	var best *homaIn
	for k, in := range h.in {
		if in.granted >= in.total || in.granted-in.got >= rttBytes {
			continue
		}
		if best == nil || in.total-in.got < best.total-best.got ||
			(in.total-in.got == best.total-best.got &&
				(k.src < bestKey.src || (k.src == bestKey.src && k.msgID < bestKey.msgID))) {
			best, bestKey = in, k
		}
	}
	if best == nil {
		h.grantClock = false
		return
	}
	grant := min(int64(netsim.MaxPayload), best.total-best.granted)
	best.granted += grant
	h.host.Send(s, &netsim.Packet{
		Dst:    bestKey.src,
		Class:  qos.Class(best.class),
		Size:   netsim.AckBytes,
		Kind:   kindHomaGrant,
		MsgID:  bestKey.msgID,
		AckSeq: best.granted,
	})
	// Pace subsequent grants at line rate of a full packet.
	s.AfterFunc(h.cfg.LineRate.TxTime(netsim.MTU), func(s *sim.Simulator) { h.grantTick(s) })
}

func (h *Homa) onGrant(s *sim.Simulator, p *netsim.Packet) {
	o, ok := h.out[p.MsgID]
	if !ok || o.done {
		return
	}
	if p.AckSeq > o.granted {
		o.granted = min(p.AckSeq, o.m.Bytes)
		h.transmit(s, p.MsgID, o)
	}
}

func (h *Homa) onDone(s *sim.Simulator, p *netsim.Packet) {
	o, ok := h.out[p.MsgID]
	if !ok || o.done {
		return
	}
	o.done = true
	o.resend.Cancel()
	delete(h.out, p.MsgID)
	if o.m.OnComplete != nil {
		o.m.OnComplete(s, o.m)
	}
}

var _ rpc.Sender = (*Homa)(nil)
