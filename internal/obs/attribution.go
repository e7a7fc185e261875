package obs

import (
	"bufio"
	"io"
	"strconv"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// AttrRecord is one completed RPC's latency decomposition. The component
// durations partition the measured RNL: Wire is defined as the residual
// (RNL minus every measured component), so the sum is exact by
// construction and any accounting error shows up as a negative Wire.
//
// Systems that bypass the standard transport (Homa, D3, PDQ) produce no
// enqueue/emit instrumentation; their records degrade gracefully with
// Sender/Transport/Pacing/NIC/Switch zero and everything in Wire.
type AttrRecord struct {
	RPC      uint64
	Src, Dst int32
	Class    int16
	IssueTS  sim.Time

	// Admit is the admission-gate delay: issue to admission decision. The
	// simulator decides admission when the RPC is issued, so it is 0; the
	// field keeps the admit_us column of the attribution CSV.
	Admit sim.Duration
	// Sender is host-side queueing before the first packet reaches the
	// NIC egress queue (stream backlog behind earlier messages and
	// window-limited waiting), excluding pacing stalls.
	Sender sim.Duration
	// Transport is first-enqueue to last-payload-packet emission:
	// window/CC stalls and inter-packet serialisation spacing, excluding
	// pacing stalls.
	Transport sim.Duration
	// Pacing is measured pacing-gate stall time (sub-packet windows).
	Pacing sim.Duration
	// NIC is the tail packet's host-uplink queue residency.
	NIC sim.Duration
	// Switch is the tail packet's switch-queue residency summed over the
	// remaining hops (one for the star, up to three for leaf-spine).
	Switch sim.Duration
	// Wire is the residual: serialisation, propagation, and the ack path.
	Wire sim.Duration

	RNL sim.Duration
}

// pendingAttr accumulates one in-flight RPC's instrumentation.
type pendingAttr struct {
	issue, firstEnq, tailEmit sim.Time
	hasEnq, hasTail           bool
	paceBefore, paceAfter     sim.Duration
	nic, sw                   sim.Duration
	tailHops                  int
}

// attrKey identifies one in-flight RPC. RPC ids are per-sender-stack
// counters, so the source host is part of the key: two hosts' RPC #4 are
// different RPCs.
type attrKey struct {
	src int
	rpc uint64
}

// Attributor decomposes each completed RPC's RNL into its components
// from lifecycle instrumentation in the RPC stack, the transport, and
// the fabric. A nil *Attributor is the disabled attributor: every method
// is a nil-checked no-op, the same zero-overhead contract as Tracer.
type Attributor struct {
	audit   *Auditor
	pending map[attrKey]*pendingAttr
	free    []*pendingAttr
	recs    []AttrRecord
}

// NewAttributor returns an enabled attributor. audit, when non-nil,
// receives each completed RPC's fabric queueing and RNL for bound
// checking.
func NewAttributor(audit *Auditor) *Attributor {
	return &Attributor{audit: audit, pending: make(map[attrKey]*pendingAttr)}
}

func (a *Attributor) alloc() *pendingAttr {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		return p
	}
	return &pendingAttr{}
}

func (a *Attributor) recycle(k attrKey, p *pendingAttr) {
	delete(a.pending, k)
	*p = pendingAttr{}
	a.free = append(a.free, p)
}

// Issue starts tracking an RPC at its issue time.
func (a *Attributor) Issue(now sim.Time, src int, rpc uint64) {
	if a == nil {
		return
	}
	p := a.alloc()
	p.issue = now
	a.pending[attrKey{src, rpc}] = p
}

// Drop forgets an RPC rejected at admission.
func (a *Attributor) Drop(src int, rpc uint64) {
	if a == nil {
		return
	}
	k := attrKey{src, rpc}
	if p := a.pending[k]; p != nil {
		a.recycle(k, p)
	}
}

// FirstEnqueue stamps the first packet reaching the host NIC egress
// queue. Later calls for the same RPC (retransmissions) are ignored.
func (a *Attributor) FirstEnqueue(now sim.Time, src int, rpc uint64) {
	if a == nil {
		return
	}
	if p := a.pending[attrKey{src, rpc}]; p != nil && !p.hasEnq {
		p.firstEnq = now
		p.hasEnq = true
	}
}

// TailEmit stamps the emission of the packet carrying the RPC's last
// payload byte. A re-emission (go-back-N retransmit) overwrites the
// stamp and resets the tail-hop residencies, so the decomposition
// reflects the transmission that actually completed.
func (a *Attributor) TailEmit(now sim.Time, src int, rpc uint64) {
	if a == nil {
		return
	}
	if p := a.pending[attrKey{src, rpc}]; p != nil {
		p.tailEmit = now
		p.hasTail = true
		p.nic, p.sw, p.tailHops = 0, 0, 0
	}
}

// PaceStall accounts d of pacing-gate stall time to the RPC. Stalls
// before the first enqueue count toward the sender-side bucket, later
// ones toward the transport bucket.
func (a *Attributor) PaceStall(src int, rpc uint64, d sim.Duration) {
	if a == nil || d <= 0 {
		return
	}
	if p := a.pending[attrKey{src, rpc}]; p != nil {
		if p.hasEnq {
			p.paceAfter += d
		} else {
			p.paceBefore += d
		}
	}
}

// TailHop accounts one egress-queue residency of the RPC's tail packet.
// The first hop after emission is the host uplink (NIC); the rest are
// switch queues.
func (a *Attributor) TailHop(now sim.Time, src int, rpc uint64, resid sim.Duration) {
	if a == nil {
		return
	}
	if p := a.pending[attrKey{src, rpc}]; p != nil {
		if p.tailHops == 0 {
			p.nic += resid
		} else {
			p.sw += resid
		}
		p.tailHops++
	}
}

// Complete closes out an RPC: compute the decomposition, retain the
// record (in completion order, so output is deterministic per run), and
// notify the auditor.
func (a *Attributor) Complete(rpc uint64, src, dst, class int, rnl sim.Duration) {
	if a == nil {
		return
	}
	k := attrKey{src, rpc}
	p := a.pending[k]
	if p == nil {
		return
	}
	rec := AttrRecord{
		RPC: rpc, Src: int32(src), Dst: int32(dst), Class: int16(class),
		IssueTS: p.issue, RNL: rnl,
	}
	if p.hasEnq {
		rec.Sender = p.firstEnq - p.issue - p.paceBefore
		if p.hasTail {
			rec.Transport = p.tailEmit - p.firstEnq - p.paceAfter
		}
	}
	rec.Pacing = p.paceBefore + p.paceAfter
	rec.NIC = p.nic
	rec.Switch = p.sw
	rec.Wire = rnl - rec.Sender - rec.Transport - rec.Pacing - rec.NIC - rec.Switch
	a.recs = append(a.recs, rec)
	a.audit.RPCDone(class, p.nic+p.sw, rnl)
	a.recycle(k, p)
}

// PendingLen reports in-flight (issued, not yet completed or dropped)
// attribution entries. Fault paths must Drop what they lose, so tests
// use this to prove the pending map cannot grow without bound.
func (a *Attributor) PendingLen() int {
	if a == nil {
		return 0
	}
	return len(a.pending)
}

// Records returns the retained decompositions in completion order.
func (a *Attributor) Records() []AttrRecord {
	if a == nil {
		return nil
	}
	return a.recs
}

// ClassAttribution is the mean latency decomposition of one class's
// completed RPCs, in microseconds. The components sum to RNLUS by
// construction: WireUS is the residual.
type ClassAttribution struct {
	Class qos.Class
	// N is the number of completed RPCs attributed on this class.
	N int
	// AdmitUS is time from RPC issue to the admission verdict: 0, as the
	// simulator decides admission at issue (AttrRecord.Admit).
	AdmitUS float64
	// SenderUS is host-side queueing between admission and the first
	// byte entering the NIC egress queue, excluding pacing stalls.
	SenderUS float64
	// TransportUS is the window/congestion-control span from first
	// enqueue to the tail byte's enqueue, excluding pacing stalls.
	TransportUS float64
	// PacingUS is time the message's head-of-line bytes sat blocked on
	// the transport's sub-packet pacing gate.
	PacingUS float64
	// NICUS is the tail packet's residency in the host NIC egress queue.
	NICUS float64
	// SwitchUS is the tail packet's summed residency in switch queues.
	SwitchUS float64
	// WireUS is the residual: serialization, propagation, and ack-path
	// time not captured by the other components.
	WireUS float64
	// RNLUS is the mean measured RPC network latency.
	RNLUS float64
}

// Summaries aggregates the retained records into per-class means,
// sorted by class.
func (a *Attributor) Summaries() []ClassAttribution {
	if a == nil || len(a.recs) == 0 {
		return nil
	}
	var byClass []ClassAttribution
	for i := range a.recs {
		r := &a.recs[i]
		if int(r.Class) >= len(byClass) {
			byClass = append(byClass, make([]ClassAttribution, int(r.Class)+1-len(byClass))...)
		}
		c := &byClass[r.Class]
		c.N++
		c.AdmitUS += r.Admit.Micros()
		c.SenderUS += r.Sender.Micros()
		c.TransportUS += r.Transport.Micros()
		c.PacingUS += r.Pacing.Micros()
		c.NICUS += r.NIC.Micros()
		c.SwitchUS += r.Switch.Micros()
		c.WireUS += r.Wire.Micros()
		c.RNLUS += r.RNL.Micros()
	}
	out := byClass[:0] // compacted in place: out never passes the element read
	for class, c := range byClass {
		if c.N == 0 {
			continue
		}
		n := float64(c.N)
		c.Class = qos.Class(class)
		c.AdmitUS /= n
		c.SenderUS /= n
		c.TransportUS /= n
		c.PacingUS /= n
		c.NICUS /= n
		c.SwitchUS /= n
		c.WireUS /= n
		c.RNLUS /= n
		out = append(out, c)
	}
	return out
}

// AttrCSVHeader is the per-RPC attribution CSV schema.
const AttrCSVHeader = "rpc,src,dst,class,issue_s,admit_us,sender_us,transport_us,pacing_us,nic_us,switch_us,wire_us,rnl_us"

// WriteCSV writes one wide CSV row per retained record, in completion
// order. Durations are microseconds in shortest round-trip form, so the
// output is byte-identical for a fixed run regardless of what else runs
// in the process.
func (a *Attributor) WriteCSV(w io.Writer) error {
	if a == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(AttrCSVHeader + "\n"); err != nil {
		return err
	}
	var buf []byte
	us := func(b []byte, d sim.Duration) []byte {
		b = append(b, ',')
		return strconv.AppendFloat(b, d.Micros(), 'g', -1, 64)
	}
	for i := range a.recs {
		r := &a.recs[i]
		buf = strconv.AppendUint(buf[:0], r.RPC, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Src), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Dst), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Class), 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, r.IssueTS.Seconds(), 'f', 9, 64)
		buf = us(buf, r.Admit)
		buf = us(buf, r.Sender)
		buf = us(buf, r.Transport)
		buf = us(buf, r.Pacing)
		buf = us(buf, r.NIC)
		buf = us(buf, r.Switch)
		buf = us(buf, r.Wire)
		buf = us(buf, r.RNL)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
