package baselines

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"aequitas/internal/netsim"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// refGrants is the allocation from scratch: it copies the live flows,
// drops the hopeless ones, re-sorts the copy in policy order and grants
// into a map. It returns each survivor's grant and how many it dropped.
// reallocate must agree with it bit for bit while keeping its flows
// sorted incrementally.
func refGrants(f *DeadlineFabric, now sim.Time) (map[uint64]float64, int64) {
	var ordered []dlFlow
	var terminated int64
	for _, fl := range f.order {
		if fl.deadline != 0 {
			left := fl.deadline - now
			if left <= 0 || f.cfg.LineRate.TxTime(int(fl.remaining)) > left {
				terminated++
				continue
			}
		}
		ordered = append(ordered, *fl)
	}
	if f.cfg.Policy == PolicyPDQ {
		slices.SortFunc(ordered, func(a, b dlFlow) int {
			ad, bd := a.deadline, b.deadline
			if ad == 0 {
				ad = sim.MaxTime
			}
			if bd == 0 {
				bd = sim.MaxTime
			}
			return cmp.Or(cmp.Compare(ad, bd), cmp.Compare(a.id, b.id))
		})
	} else {
		slices.SortFunc(ordered, func(a, b dlFlow) int {
			return cmp.Or(cmp.Compare(a.arrival, b.arrival), cmp.Compare(a.id, b.id))
		})
	}
	minf := func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	hosts := len(f.links)
	capacity := float64(f.cfg.LineRate)
	upRes := make([]float64, hosts)
	downRes := make([]float64, hosts)
	for h := range upRes {
		upRes[h], downRes[h] = capacity, capacity
	}
	grant := make(map[uint64]float64, len(ordered))
	for _, fl := range ordered {
		avail := minf(upRes[fl.src], downRes[fl.dst])
		if avail <= 0 {
			continue
		}
		var want float64
		switch {
		case f.cfg.Policy == PolicyPDQ:
			want = avail
		case fl.deadline > 0:
			left := (fl.deadline - now).Seconds()
			if left <= 0 {
				continue
			}
			want = minf(float64(fl.remaining)*8/left, avail)
		default:
			continue
		}
		grant[fl.id] = want
		upRes[fl.src] -= want
		downRes[fl.dst] -= want
	}
	byDown := make([][]dlFlow, hosts)
	for _, fl := range ordered {
		byDown[fl.dst] = append(byDown[fl.dst], fl)
	}
	for h, flows := range byDown {
		if len(flows) == 0 || downRes[h] <= 0 {
			continue
		}
		share := downRes[h] / float64(len(flows))
		for _, fl := range flows {
			g := minf(share, upRes[fl.src])
			if g <= 0 {
				continue
			}
			grant[fl.id] += g
			upRes[fl.src] -= g
			downRes[h] -= g
		}
	}
	out := make(map[uint64]float64, len(ordered))
	for _, fl := range ordered {
		out[fl.id] = grant[fl.id]
	}
	return out, terminated
}

// checkGrants reallocates now and compares every live flow's grant and
// rate with refGrants computed on the same state.
func checkGrants(t *testing.T, s *sim.Simulator, f *DeadlineFabric) {
	t.Helper()
	want, terminated := refGrants(f, s.Now())
	was := f.Terminated
	f.reallocate(s)
	if got := f.Terminated - was; got != terminated {
		t.Fatalf("t=%v: terminated %d flows, reference %d", s.Now(), got, terminated)
	}
	if len(f.order) != len(want) {
		t.Fatalf("t=%v: %d live flows, reference %d", s.Now(), len(f.order), len(want))
	}
	for _, fl := range f.order {
		g, ok := want[fl.id]
		if !ok || math.Float64bits(fl.grant) != math.Float64bits(g) || fl.rate != sim.Rate(g) {
			t.Fatalf("t=%v: flow %d (%d→%d, deadline %v) granted %v (rate %d), reference %v (live %v)",
				s.Now(), fl.id, fl.src, fl.dst, fl.deadline, fl.grant, fl.rate, g, ok)
		}
	}
}

// FuzzDeadlineGrants drives a fabric through arrivals, acknowledgements
// and clock advances, and after each step checks that reallocate over the
// incrementally sorted flows grants exactly what a full re-sort would.
// The first byte picks the policy and 2-6 hosts; each following triple
// (op, a, b) is one step.
func FuzzDeadlineGrants(f *testing.F) {
	// D3: two 256 KiB flows on one link arrive at the same instant, each
	// asking for about half the link: arrival ties break by id.
	f.Add([]byte{0, 0, 0x18, 0x10, 0, 0x18, 0x10})
	// PDQ: a 60 µs deadline, then a 20 µs one, on one link: the later
	// arrival goes first.
	f.Add([]byte{1, 0, 0x08, 0x18, 0, 0x08, 0x08})
	// PDQ, 3 hosts: equal deadlines on one link tie by id; then a tick,
	// an ack, a hopeless flow, a deadline-less one.
	f.Add([]byte{3, 0, 0, 0x10, 0, 3, 0x10, 2, 3, 0, 1, 0, 0, 0, 0x19, 0x08, 2, 15, 0, 1, 0, 0, 0, 1, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		hosts := 2 + int(ops[0]/2%5)
		s, fab, senders := deadlineSetup(t, DeadlinePolicy(ops[0]%2), hosts)
		const grid = 20 * sim.Microsecond
		for i := 1; i+2 < len(ops) && i < 600; i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			switch op % 3 {
			case 0: // arrival: sizes from one packet to 21 µs of line rate
				src := int(a) % hosts
				m := &transport.Message{
					Dst:   (src + 1 + int(b)%(hosts-1)) % hosts,
					Bytes: []int64{1000, 4 << 10, 32 << 10, 256 << 10}[a/8%4],
				}
				// Deadlines on a 20 µs grid, so that flows tie.
				if k := sim.Time(b / 8 % 4); k > 0 {
					m.Deadline = (s.Now()/grid + k) * grid
				}
				senders[src].Send(s, m)
			case 1: // the done-ack of a flow that has sent its last byte
				var drained []*dlFlow
				for _, fl := range fab.order {
					if fl.remaining == 0 {
						drained = append(drained, fl)
					}
				}
				if len(drained) > 0 {
					fl := drained[int(a)%len(drained)]
					senders[fl.src].onDone(s, &netsim.Packet{Kind: kindDeadlineDone, MsgID: fl.id})
				}
			case 2:
				s.RunUntil(s.Now() + sim.Time(a%16)*sim.Microsecond)
			}
			checkGrants(t, s, fab)
		}
	})
}

// reallocate allocates nothing: its flows are sorted already and its
// per-link residuals are reused.
func TestReallocateAllocs(t *testing.T) {
	for _, policy := range []DeadlinePolicy{PolicyD3, PolicyPDQ} {
		s, f, senders := deadlineSetup(t, policy, 4)
		for i := 0; i < 40; i++ {
			m := &transport.Message{Dst: (i + 1) % 4, Bytes: 64 << 10}
			if i%3 > 0 {
				m.Deadline = sim.Time(i%3) * sim.Time(sim.Millisecond)
			}
			senders[i%4].Send(s, m)
		}
		if n := testing.AllocsPerRun(100, func() { f.reallocate(s) }); n != 0 {
			t.Errorf("policy %d: reallocate allocates %v times per call", policy, n)
		}
	}
}

// PDQ under overload, explained. One host sends deadline-less 4 KiB flows
// to another, back to back at 1.4× line rate. Work-conserving EDF would
// complete close to line rate ÷ RPC size, about 3 RPCs per µs. This model
// completes one flow per done-ack round trip instead: the flow at the
// head of the order takes the whole link, keeps that grant after its last
// byte has left, and gives it up only when its done-ack arrives (onDone →
// kickAll). Nothing starts the next flow earlier, and Send pumps only the
// flow it adds: the model lacks PDQ's Early Start. Adding it must change
// this test (EXPERIMENTS.md, Figure 22, has the variants measured).
func TestPDQOverloadOneFlowPerAckRoundTrip(t *testing.T) {
	s, f, senders := deadlineSetup(t, PolicyPDQ, 2)
	const size = 4 << 10
	const horizon = 200 * sim.Microsecond
	gap := sim.Duration(float64(f.cfg.LineRate.TxTime(size)) / 1.4)
	var done []sim.Time
	for at := sim.Time(0); at < horizon; at += gap {
		s.AtFunc(at, func(s *sim.Simulator) {
			senders[0].Send(s, &transport.Message{Dst: 1, Class: qos.Low, Bytes: size,
				OnComplete: func(s *sim.Simulator, _ *transport.Message) { done = append(done, s.Now()) }})
		})
	}
	s.RunUntil(horizon)
	lineRPCs := float64(f.cfg.LineRate) / (8 * size) * 1e-6
	perUS := float64(len(done)) / (float64(horizon) / float64(sim.Microsecond))
	t.Logf("%d completions: %.2f per µs against %.2f at line rate; a round trip takes %v",
		len(done), perUS, lineRPCs, done[0])
	// The first completion is one flow's whole round trip: data out, ack back.
	if want := int(horizon / done[0]); len(done) != want {
		t.Errorf("%d completions in %v, want %d: one per %v done-ack round trip",
			len(done), horizon, want, done[0])
	}
}
