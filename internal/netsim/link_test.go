package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aequitas/internal/obs"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/wfq"
)

// linkRate sends a byte per picosecond, so a packet's serialisation time
// is its size in picoseconds and the schedules below can put operations
// exactly on free moments.
const linkRate = 8000 * sim.Gbps

func newLinkSched() wfq.Scheduler { return wfq.NewWFQ([]float64{8, 4, 1}, 600) }

// linkOp is one operation of a single-link schedule, run as an ordinary
// event at at: send a packet, take the link down or bring it up, or read
// its Stats.
type linkOp struct {
	at    sim.Time
	kind  int
	class qos.Class
	size  int
}

const (
	opSend = iota
	opDown
	opUp
	opSample
)

// linkRecord is everything a single-link run shows: its deliveries, the
// hop of every packet that started serialising, and its Stats at every
// sample and once more at the end.
type linkRecord struct {
	deliveries, hops []string
	samples          []LinkStats
}

func hopString(t sim.Time, pkt uint64, resid sim.Duration, queued int64) string {
	return fmt.Sprintf("t=%d pkt=%d resid=%d queued=%d", t, pkt, resid, queued)
}

// refLink is the rule Link implements, applied by a loop over the
// schedule with no events: before each operation at t, the transmitter's
// free moments before t run (at or before t when prop is 0), each starting
// the scheduler's next packet; a packet's delivery is fixed when it starts.
type refLink struct {
	prop       sim.Duration
	sched      wfq.Scheduler
	loss       *rand.Rand
	lossRate   float64
	down, busy bool
	freeAt     sim.Time
	st         LinkStats
	rec        linkRecord
	ties       int // operations at the instant the transmitter frees
}

func (r *refLink) start(t sim.Time) {
	it := r.sched.Dequeue()
	if it == nil {
		return
	}
	p := it.(*Packet)
	r.rec.hops = append(r.rec.hops, hopString(t, p.ID, t-p.EnqueuedAt, int64(r.sched.QueuedBytes())))
	r.busy, r.freeAt = true, t+sim.Duration(p.Size)
	r.st.TxPackets++
	r.st.TxBytes += int64(p.Size)
	r.st.BusyTime += sim.Duration(p.Size)
	r.rec.deliveries = append(r.rec.deliveries, fmt.Sprintf("t=%d pkt=%d", r.freeAt+r.prop, p.ID))
}

func (r *refLink) run(ops []linkOp) linkRecord {
	for i, op := range ops {
		if r.busy && r.freeAt == op.at {
			r.ties++
		}
		for r.busy && (r.freeAt < op.at || r.prop == 0 && r.freeAt == op.at) {
			r.busy = false
			if !r.down {
				r.start(r.freeAt)
			}
		}
		switch op.kind {
		case opSend:
			p := &Packet{ID: uint64(i), Class: op.class, Size: op.size, EnqueuedAt: op.at}
			if r.down || r.lossRate > 0 && r.loss.Float64() < r.lossRate {
				r.st.FaultDropPackets++
				r.st.FaultDropBytes += int64(p.Size)
				continue
			}
			for _, d := range r.sched.Enqueue(p) {
				r.st.DropPackets++
				r.st.DropBytes += int64(d.SizeBytes())
			}
		case opDown, opUp:
			r.down = op.kind == opDown
		case opSample:
			r.rec.samples = append(r.rec.samples, r.stats())
			continue
		}
		if !r.busy && !r.down {
			r.start(op.at)
		}
	}
	for r.busy {
		r.busy = false
		if !r.down {
			r.start(r.freeAt)
		}
	}
	r.rec.samples = append(r.rec.samples, r.stats())
	return r.rec
}

func (r *refLink) stats() LinkStats {
	st := r.st
	st.QueuedBytes, st.QueuedPackets = r.sched.QueuedBytes(), r.sched.QueuedItems()
	return st
}

// runLink plays the schedule on a Link, each operation an ordinary event.
func runLink(prop sim.Duration, loss float64, ops []linkOp) linkRecord {
	s := sim.New(1)
	var rec linkRecord
	l := NewLink("l", linkRate, prop, newLinkSched(), HandlerFunc(func(s *sim.Simulator, p *Packet) {
		rec.deliveries = append(rec.deliveries, fmt.Sprintf("t=%d pkt=%d", s.Now(), p.ID))
	}))
	l.Trace = obs.NewTracer(obs.Sinks{Record: true})
	if loss > 0 {
		l.SetLoss(loss, rand.New(rand.NewSource(1)))
	}
	for i, op := range ops {
		s.AtFunc(op.at, func(s *sim.Simulator) {
			switch op.kind {
			case opSend:
				l.Send(s, &Packet{ID: uint64(i), MsgID: uint64(i), Class: op.class, Size: op.size})
			case opDown, opUp:
				l.SetDown(s, op.kind == opDown)
			case opSample:
				rec.samples = append(rec.samples, l.Stats(s.Now()))
			}
		})
	}
	s.Run()
	rec.samples = append(rec.samples, l.Stats(s.Now()))
	for _, e := range l.Trace.Events() {
		if e.Kind == obs.KindHop {
			rec.hops = append(rec.hops, hopString(e.TS, e.RPC, sim.Duration(e.Val), e.QBytes))
		}
	}
	return rec
}

// decodeLinkSchedule turns fuzz bytes into a schedule on a 100 ps grid,
// which every serialisation time (100-400 ps) and propagation delay (0,
// 100, 300 or 700 ps) is a multiple of: operations land on free moments
// and deliveries often. The first byte picks the delay and the loss rate;
// each pair after it advances the clock 0-3 steps and names an operation.
func decodeLinkSchedule(data []byte) (prop sim.Duration, loss float64, ops []linkOp) {
	if len(data) == 0 {
		return 0, 0, nil
	}
	prop = []sim.Duration{0, 100, 300, 700}[data[0]%4]
	loss = []float64{0, 0.25}[data[0]>>2%2]
	var t sim.Time
	for i := 1; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		t += sim.Duration(a%4) * 100
		op := linkOp{at: t, kind: []int{opSend, opSend, opSend, opSend, opDown, opUp, opSample, opSample}[a>>2%8]}
		op.class, op.size = qos.Class(b%3), 100*(1+int(b>>2%4))
		ops = append(ops, op)
	}
	return prop, loss, ops
}

// linkDiverge plays one schedule on a Link and on the reference and fails
// at the first difference; it returns the reference's count of operations
// that fell on a free moment.
func linkDiverge(t *testing.T, data []byte) int {
	t.Helper()
	prop, loss, ops := decodeLinkSchedule(data)
	return linkDivergeOps(t, prop, loss, ops)
}

func linkDivergeOps(t *testing.T, prop sim.Duration, loss float64, ops []linkOp) int {
	t.Helper()
	ref := &refLink{prop: prop, sched: newLinkSched(), lossRate: loss, loss: rand.New(rand.NewSource(1))}
	want := ref.run(ops)
	got := runLink(prop, loss, ops)
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"deliveries", got.deliveries, want.deliveries}, {"hops", got.hops, want.hops}} {
		if i := diffAt(c.got, c.want); i >= 0 {
			t.Fatalf("prop %d loss %v: %s differ at %d:\nlink      %v\nreference %v\nschedule %v",
				prop, loss, c.what, i, c.got[i:min(i+3, len(c.got))], c.want[i:min(i+3, len(c.want))], ops)
		}
	}
	if !slices.Equal(got.samples, want.samples) {
		t.Fatalf("prop %d loss %v: samples differ:\nlink      %+v\nreference %+v\nschedule %v", prop, loss, got.samples, want.samples, ops)
	}
	return ref.ties
}

// diffAt is the first index where a and b differ, or -1.
func diffAt(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestLinkMatchesReference checks Link against the rule it states, on
// named schedules and then random ones.
func TestLinkMatchesReference(t *testing.T) {
	send := func(at sim.Time, class qos.Class, size int) linkOp {
		return linkOp{at: at, kind: opSend, class: class, size: size}
	}
	at := func(t sim.Time, kind int) linkOp { return linkOp{at: t, kind: kind} }
	for _, c := range []struct {
		name string
		prop sim.Duration
		ops  []linkOp
	}{
		// The transmitter frees at 400 with a scavenger packet queued; a
		// high-class packet sent at 400 competes and goes first.
		{"send-at-free-moment-competes", 300, []linkOp{send(0, 2, 400), send(0, 2, 100), send(400, 0, 100), at(400, opSample)}},
		// With no propagation the free moment comes first: the packet sent
		// at 400 waits behind the scavenger one.
		{"no-propagation-frees-first", 0, []linkOp{send(0, 2, 400), send(0, 2, 100), send(400, 0, 100), at(400, opSample)}},
		// Down mid-serialisation: the packet on the wire is delivered, the
		// queue freezes, a send while down is blackholed, and the queue
		// restarts when the link comes back at the old free moment.
		{"down-window", 100, []linkOp{send(0, 1, 300), send(0, 1, 300), at(100, opDown), send(200, 0, 100),
			at(300, opSample), at(300, opUp), at(300, opSample), at(700, opSample)}},
		// A back-to-back run longer than the propagation delay: several
		// packets in flight, each delivery scheduled by its predecessor's.
		{"pipelined-run", 700, []linkOp{send(0, 0, 100), send(0, 1, 200), send(0, 2, 300), send(0, 0, 400),
			send(100, 0, 100), at(300, opSample), at(600, opSample), at(1000, opSample)}},
	} {
		t.Run(c.name, func(t *testing.T) { linkDivergeOps(t, c.prop, 0, c.ops) })
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		ties := 0
		for i := 0; i < 500; i++ {
			data := make([]byte, 1+2*(1+rng.Intn(120)))
			rng.Read(data)
			ties += linkDiverge(t, data)
		}
		if ties < 1000 {
			t.Errorf("only %d operations fell on a free moment; the schedules do not test the tie", ties)
		}
	})
}

// FuzzLinkSchedule is the same comparison with the fuzzer choosing the
// schedule: go test -run '^$' -fuzz FuzzLinkSchedule ./internal/netsim
func FuzzLinkSchedule(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 5, 1, 2, 24, 0})
	f.Add([]byte{6, 0, 9, 0, 10, 17, 0, 16, 0, 20, 0, 1, 2, 24, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip()
		}
		linkDiverge(t, data)
	})
}

// TestSettleClosesTheInstant: a run stopped at a free moment has not run
// it, so Stats at that instant is the state at its start, until
// Network.Settle closes the instant.
func TestSettleClosesTheInstant(t *testing.T) {
	net, err := New(Config{Hosts: 2, SwitchSched: fifoFactory})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.Sinks{Record: true})
	net.SetTracer(tr)
	s := sim.New(1)
	for i := 0; i < 3; i++ {
		net.Host(0).Send(s, &Packet{Dst: 1, Size: 1500, MsgID: uint64(i)})
	}
	// The uplink frees at 120 and 240 ns; nothing touches it before its
	// first delivery at 620 ns.
	up := net.Host(0).Uplink
	s.RunUntil(240 * sim.Nanosecond)
	if got := up.Stats(s.Now()).TxPackets; got != 2 {
		t.Errorf("before Settle: %d packets sent, want 2", got)
	}
	net.Settle(s.Now())
	if got := up.Stats(s.Now()).TxPackets; got != 3 || tr.Len() != 3 {
		t.Errorf("after Settle: %d packets sent and %d hops traced, want 3 and 3", got, tr.Len())
	}
}
