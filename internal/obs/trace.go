package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"aequitas/internal/faults"
	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/stats"
)

// Kind is the lifecycle stage an Event records.
type Kind uint8

const (
	KindIssue Kind = iota
	KindAdmit
	KindEnqueue
	KindHop
	KindDrop
	KindComplete
	KindFault
	kindCount
)

func (k Kind) String() string {
	switch k {
	case KindIssue:
		return "issue"
	case KindAdmit:
		return "admit"
	case KindEnqueue:
		return "enqueue"
	case KindHop:
		return "hop"
	case KindDrop:
		return "drop"
	case KindComplete:
		return "complete"
	case KindFault:
		return "fault"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded lifecycle event. A single struct covers every
// kind so the tracer's buffer is a flat slice of values: recording an
// event is an append, never a heap allocation per event.
type Event struct {
	TS   sim.Time
	Kind Kind
	// Decision is the admission verdict of a KindAdmit event.
	Decision flight.Verdict
	Class    int16
	Prio     int16
	Src, Dst int32
	RPC      uint64
	Bytes    int64
	// Val carries the kind's scalar: p_admit (admit), queue residency in
	// picoseconds (hop), or RNL in picoseconds (complete).
	Val float64
	// QBytes is the egress queue occupancy after a hop's dequeue.
	QBytes int64
	// Fault is the injected fault kind of a KindFault event.
	Fault faults.Kind
	// Link names the egress port for hop and drop events. Link names are
	// interned at topology construction, so storing one here copies a
	// string header, not the bytes.
	Link string
}

// Sinks are what a Tracer feeds; a false or nil field is off.
type Sinks struct {
	// Record keeps every event for Events and WriteNDJSON.
	Record bool
	// Attr receives each completed RPC's latency decomposition.
	Attr *Attributor
	// Audit checks each data packet's queue residency against its class
	// bound and gathers each completed RPC's fabric queueing and RNL.
	Audit *Auditor
	// Tails receives each completed RPC's RNL on its (dst, class)
	// channel, warmup included, as the registry samples from t=0.
	Tails *TailTracker
}

// Tracer is a simulation run's one lifecycle observer: the network, the
// transport and the RPC stack report every event to it once, and it feeds
// its Sinks. A nil *Tracer has no sink on: every method is a nil-checked
// no-op, the zero-overhead fast path instrumented code relies on.
type Tracer struct {
	Sinks
	events []Event
	// rpcs is each in-flight RPC's attribution state, kept only when Attr
	// or Audit is on and looked up once per event (of the hops, only a
	// tail packet's).
	rpcs map[attrKey]*pendingAttr
	free []*pendingAttr
}

// NewTracer returns a tracer feeding s, or nil when no sink is on.
func NewTracer(s Sinks) *Tracer {
	if s == (Sinks{}) {
		return nil
	}
	t := &Tracer{Sinks: s}
	if s.Attr != nil || s.Audit != nil {
		t.rpcs = make(map[attrKey]*pendingAttr)
	}
	return t
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the recorded events in time order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// state returns the in-flight RPC's attribution state, nil when it has
// none.
func (t *Tracer) state(src int, rpc uint64) *pendingAttr {
	if t == nil || t.rpcs == nil {
		return nil
	}
	return t.rpcs[attrKey{src, rpc}]
}

// Issue records an RPC entering the stack and starts its attribution.
func (t *Tracer) Issue(now sim.Time, rpc uint64, src, dst, prio, class int, bytes int64) {
	if t == nil {
		return
	}
	if t.Record {
		t.events = append(t.events, Event{TS: now, Kind: KindIssue, RPC: rpc,
			Src: int32(src), Dst: int32(dst), Prio: int16(prio), Class: int16(class), Bytes: bytes})
	}
	if t.rpcs != nil {
		var p *pendingAttr
		if n := len(t.free); n > 0 {
			p = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			p = &pendingAttr{}
		}
		p.issue = now
		t.rpcs[attrKey{src, rpc}] = p
	}
}

// Admit records the admission decision and the admit probability used;
// an RPC dropped at admission is Lost.
func (t *Tracer) Admit(now sim.Time, rpc uint64, src, dst, class int, dec flight.Verdict, pAdmit float64) {
	if t == nil {
		return
	}
	if t.Record {
		t.events = append(t.events, Event{TS: now, Kind: KindAdmit, RPC: rpc,
			Src: int32(src), Dst: int32(dst), Class: int16(class), Decision: dec, Val: pAdmit})
	}
	if dec == flight.VerdictDrop {
		t.Lost(src, rpc)
	}
}

// Enqueue records a transmission's first packet being handed to the host
// NIC. The RPC's first one stamps its attribution; retries and hedges do
// not.
func (t *Tracer) Enqueue(now sim.Time, rpc uint64, src, dst, class int, bytes int64) {
	if t == nil {
		return
	}
	if t.Record {
		t.events = append(t.events, Event{TS: now, Kind: KindEnqueue, RPC: rpc,
			Src: int32(src), Dst: int32(dst), Class: int16(class), Bytes: bytes})
	}
	if p := t.state(src, rpc); p != nil && !p.hasEnq {
		p.firstEnq, p.hasEnq = now, true
	}
}

// TailEmit stamps the emission of the packet carrying the RPC's last
// payload byte. A re-emission (go-back-N retransmit) overwrites the stamp
// and resets the tail-hop residencies, so the decomposition reflects the
// transmission that actually completed.
func (t *Tracer) TailEmit(now sim.Time, src int, rpc uint64) {
	if p := t.state(src, rpc); p != nil {
		p.tailEmit, p.hasTail = now, true
		p.nic, p.sw, p.tailHops = 0, 0, 0
	}
}

// PaceStall accounts d of pacing-gate stall time to the RPC. Stalls before
// the first enqueue count toward the sender-side bucket, later ones toward
// the transport bucket.
func (t *Tracer) PaceStall(src int, rpc uint64, d sim.Duration) {
	if p := t.state(src, rpc); p != nil && d > 0 {
		if p.hasEnq {
			p.paceAfter += d
		} else {
			p.paceBefore += d
		}
	}
}

// Hop records a data packet leaving one egress queue after resid queueing;
// queuedBytes is the port occupancy after the dequeue. The auditor checks
// resid against the class bound, and a tail packet's residency goes to its
// RPC's attribution: the first hop after emission is the host uplink
// (NIC), the rest are switch queues. A link records a hop when it settles,
// possibly after later events (netsim.Link), so the row goes in after the
// last one at or before now: the trace stays in order.
func (t *Tracer) Hop(now sim.Time, src int, rpc uint64, tail bool, link string, class, bytes int, resid sim.Duration, queuedBytes int) {
	if t == nil {
		return
	}
	if t.Record {
		i := len(t.events)
		for i > 0 && t.events[i-1].TS > now {
			i--
		}
		t.events = slices.Insert(t.events, i, Event{TS: now, Kind: KindHop, RPC: rpc, Link: link,
			Class: int16(class), Bytes: int64(bytes), Val: float64(resid), QBytes: int64(queuedBytes)})
	}
	if a := t.Audit; a != nil {
		cl := a.clamp(class)
		c := a.class(cl)
		c.hops++
		us := resid.Micros()
		c.maxHopUS = max(c.maxHopUS, us)
		if b, ok := a.bound(cl); ok && us > b+a.cfg.SlackUS {
			c.violations++
			a.record(AuditViolation{RPC: rpc, Class: qos.Class(cl), Link: link,
				TimeUS: now.Micros(), ObservedUS: us, BoundUS: b})
		}
	}
	if !tail {
		return
	}
	if p := t.state(src, rpc); p != nil {
		if p.tailHops == 0 {
			p.nic += resid
		} else {
			p.sw += resid
		}
		p.tailHops++
	}
}

// Drop records a packet dropped by an egress scheduler.
func (t *Tracer) Drop(now sim.Time, rpc uint64, link string, class, bytes int) {
	if t == nil || !t.Record {
		return
	}
	t.events = append(t.events, Event{TS: now, Kind: KindDrop, RPC: rpc, Link: link,
		Class: int16(class), Bytes: int64(bytes)})
}

// Complete records the RPC's last byte being acknowledged and closes its
// attribution: the decomposition is kept (in completion order, so output
// is deterministic per run), and the auditor and the tail series get the
// RNL.
func (t *Tracer) Complete(now sim.Time, rpc uint64, src, dst, class int, bytes int64, rnl sim.Duration) {
	if t == nil {
		return
	}
	if t.Record {
		t.events = append(t.events, Event{TS: now, Kind: KindComplete, RPC: rpc,
			Src: int32(src), Dst: int32(dst), Class: int16(class), Bytes: bytes, Val: float64(rnl)})
	}
	t.Tails.Observe(dst, class, rnl.Micros())
	p := t.state(src, rpc)
	if p == nil {
		return
	}
	if a := t.Attr; a != nil {
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
	}
	if a := t.Audit; a != nil {
		c := a.class(a.clamp(class))
		c.rnl.Add(rnl.Micros())
		c.fabric.Add((p.nic + p.sw).Micros())
	}
	t.forget(src, rpc, p)
}

// Lost forgets an RPC that will not complete: dropped at admission,
// failed, or lost in a crash.
func (t *Tracer) Lost(src int, rpc uint64) {
	if p := t.state(src, rpc); p != nil {
		t.forget(src, rpc, p)
	}
}

// forget recycles the RPC's attribution state p.
func (t *Tracer) forget(src int, rpc uint64, p *pendingAttr) {
	delete(t.rpcs, attrKey{src, rpc})
	*p = pendingAttr{}
	t.free = append(t.free, p)
}

// InFlight reports the RPCs holding attribution state: issued, not yet
// completed or lost. Fault paths must report what they lose, so tests use
// this to prove the state cannot grow without bound.
func (t *Tracer) InFlight() int {
	if t == nil {
		return 0
	}
	return len(t.rpcs)
}

// Fault records an injected fault event being applied: a link going
// down/up, a loss rate changing (rate in Val), or a host crash/restart.
// target is the link name or "host:N"; it reuses the interned-string
// Link slot.
func (t *Tracer) Fault(now sim.Time, f faults.Kind, target string, rate float64) {
	if t == nil || !t.Record {
		return
	}
	t.events = append(t.events, Event{TS: now, Kind: KindFault, Fault: f, Link: target, Val: rate})
}

// picosUS converts a picosecond scalar held in Event.Val to microseconds.
func picosUS(v float64) float64 { return v / float64(sim.Microsecond) }

// WriteNDJSON writes the recorded events as newline-delimited JSON, one
// event per line, in time order.
func (t *Tracer) WriteNDJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf []byte
	for i := range t.events {
		buf = appendNDJSON(buf[:0], &t.events[i])
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func appendNDJSON(b []byte, e *Event) []byte {
	num := func(b []byte, key string, v int64) []byte {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		return strconv.AppendInt(b, v, 10)
	}
	flt := func(b []byte, key string, v float64) []byte {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	str := func(b []byte, key, v string) []byte {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		return flight.AppendJSONString(b, v)
	}
	b = append(b, `{"ts_us":`...)
	b = strconv.AppendFloat(b, e.TS.Micros(), 'f', 3, 64)
	b = str(b, "kind", e.Kind.String())
	b = num(b, "rpc", int64(e.RPC))
	switch e.Kind {
	case KindIssue:
		b = num(b, "src", int64(e.Src))
		b = num(b, "dst", int64(e.Dst))
		b = num(b, "prio", int64(e.Prio))
		b = num(b, "class", int64(e.Class))
		b = num(b, "bytes", e.Bytes)
	case KindAdmit:
		b = num(b, "src", int64(e.Src))
		b = num(b, "dst", int64(e.Dst))
		b = num(b, "class", int64(e.Class))
		b = str(b, "decision", e.Decision.String())
		b = flt(b, "p_admit", e.Val)
	case KindEnqueue:
		b = num(b, "src", int64(e.Src))
		b = num(b, "dst", int64(e.Dst))
		b = num(b, "class", int64(e.Class))
		b = num(b, "bytes", e.Bytes)
	case KindHop:
		b = str(b, "link", e.Link)
		b = num(b, "class", int64(e.Class))
		b = num(b, "bytes", e.Bytes)
		b = flt(b, "resid_us", picosUS(e.Val))
		b = num(b, "qbytes", e.QBytes)
	case KindDrop:
		b = str(b, "link", e.Link)
		b = num(b, "class", int64(e.Class))
		b = num(b, "bytes", e.Bytes)
	case KindComplete:
		b = num(b, "src", int64(e.Src))
		b = num(b, "dst", int64(e.Dst))
		b = num(b, "class", int64(e.Class))
		b = num(b, "bytes", e.Bytes)
		b = flt(b, "rnl_us", picosUS(e.Val))
	case KindFault:
		b = str(b, "event", e.Fault.String())
		b = str(b, "target", e.Link)
		b = flt(b, "rate", e.Val)
	}
	return append(b, '}')
}

// schemaFields maps each kind to the fields required beyond the common
// ts_us/kind/rpc: the schema WriteNDJSON writes and summarizeTrace reads.
var schemaFields = map[string][]string{
	"issue":    {"src", "dst", "prio", "class", "bytes"},
	"admit":    {"src", "dst", "class", "decision", "p_admit"},
	"enqueue":  {"src", "dst", "class", "bytes"},
	"hop":      {"link", "class", "bytes", "resid_us", "qbytes"},
	"drop":     {"link", "class", "bytes"},
	"complete": {"src", "dst", "class", "bytes", "rnl_us"},
	"fault":    {"event", "target", "rate"},
}

// summarizeTrace is the one reader of the NDJSON trace. It checks every
// line against the schema as it counts it: a JSON object carrying
// ts_us/kind/rpc plus its kind's required fields, typed (class an
// integer); timestamps non-negative and non-decreasing; admit events with
// a probability in [0, 1] and a known decision; hop residencies
// non-negative; completions with a positive RNL; fault events with a rate
// in [0, 1] and a known simulator fault. Errors name the field and the
// physical line number (blank lines count, so the number matches an
// editor's view of the file).
func summarizeTrace(r io.Reader) (*TraceSummary, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	ts := &TraceSummary{Kinds: make(map[string]int64)}
	all := stats.NewHist()
	byClass := make(map[string]*stats.Hist)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("line %d: invalid JSON: %w", lineNo, err)
		}
		t, ok := m["ts_us"].(float64)
		if !ok || t < 0 {
			return nil, fmt.Errorf("line %d: field \"ts_us\" missing or negative", lineNo)
		}
		if t < ts.EndUS {
			return nil, fmt.Errorf("line %d: field \"ts_us\" %.3f before previous %.3f", lineNo, t, ts.EndUS)
		}
		ts.EndUS = max(ts.EndUS, t) // the trace horizon: ts_us never decreases
		kind, ok := m["kind"].(string)
		if !ok {
			return nil, fmt.Errorf("line %d: field \"kind\" missing", lineNo)
		}
		req, ok := schemaFields[kind]
		if !ok {
			return nil, fmt.Errorf("line %d: field \"kind\": unknown kind %q", lineNo, kind)
		}
		if _, ok := m["rpc"].(float64); !ok {
			return nil, fmt.Errorf("line %d: field \"rpc\" missing", lineNo)
		}
		for _, f := range req {
			v, ok := m[f]
			if !ok {
				return nil, fmt.Errorf("line %d: field %q missing from %s event", lineNo, f, kind)
			}
			n, isNum := v.(float64)
			_, isStr := v.(string)
			switch wantStr := f == "link" || f == "decision" || f == "event" || f == "target"; {
			case wantStr && !isStr:
				return nil, fmt.Errorf("line %d: field %q must be a string", lineNo, f)
			case !wantStr && !isNum:
				return nil, fmt.Errorf("line %d: field %q must be a number", lineNo, f)
			case f == "class" && (n != math.Trunc(n) || math.Abs(n) > math.MaxInt32):
				return nil, fmt.Errorf("line %d: field %q must be an integer", lineNo, f)
			}
		}
		switch kind {
		case "admit":
			if p := m["p_admit"].(float64); p < 0 || p > 1 {
				return nil, fmt.Errorf("line %d: field \"p_admit\" %v out of [0, 1]", lineNo, p)
			}
			if d := m["decision"].(string); d != "admit" && d != "downgrade" && d != "drop" {
				return nil, fmt.Errorf("line %d: field \"decision\": unknown decision %q", lineNo, d)
			}
		case "hop":
			if m["resid_us"].(float64) < 0 {
				return nil, fmt.Errorf("line %d: field \"resid_us\" negative", lineNo)
			}
		case "complete":
			rnl := m["rnl_us"].(float64)
			if rnl <= 0 {
				return nil, fmt.Errorf("line %d: field \"rnl_us\" non-positive", lineNo)
			}
			all.Record(rnl)
			key := "q" + strconv.Itoa(int(m["class"].(float64)))
			h, ok := byClass[key]
			if !ok {
				h = stats.NewHist()
				byClass[key] = h
			}
			h.Record(rnl)
		case "fault":
			if r := m["rate"].(float64); r < 0 || r > 1 {
				return nil, fmt.Errorf("line %d: field \"rate\" %v out of [0, 1]", lineNo, r)
			}
			if k, ok := faults.KindNamed(m["event"].(string)); !ok || k.Serving() {
				return nil, fmt.Errorf("line %d: field \"event\": unknown fault %q", lineNo, m["event"])
			}
		}
		ts.Events++
		ts.Kinds[kind]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	ts.RNL = quantilesFromHist(all)
	if math.IsInf(ts.RNL.MeanUS, 0) {
		return nil, errors.New("field \"rnl_us\": sum overflows")
	}
	if len(byClass) > 0 {
		ts.RNLByClass = make(map[string]QuantilesUS, len(byClass))
		for k, h := range byClass {
			ts.RNLByClass[k] = quantilesFromHist(h)
		}
	}
	return ts, nil
}
