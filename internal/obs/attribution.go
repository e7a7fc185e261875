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

// Attributor keeps each completed RPC's latency decomposition, which the
// Tracer computes from the lifecycle events the RPC stack, the transport
// and the fabric report to it.
type Attributor struct {
	recs []AttrRecord
}

// NewAttributor returns an empty attributor.
func NewAttributor() *Attributor { return &Attributor{} }

// Records returns the retained decompositions in completion order.
func (a *Attributor) Records() []AttrRecord { return a.recs }

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
	if len(a.recs) == 0 {
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
