package baselines

import (
	"testing"

	"aequitas/internal/netsim"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
	"aequitas/internal/wfq"
)

func buildNet(t *testing.T, hosts int, sched netsim.SchedulerFactory) *netsim.Network {
	t.Helper()
	net, err := netsim.New(netsim.Config{Hosts: hosts, SwitchSched: sched})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestQJumpRates(t *testing.T) {
	rates := QJumpRates(3, 100*sim.Gbps, 16)
	if len(rates) != 3 {
		t.Fatalf("len = %d", len(rates))
	}
	if rates[0] == 0 || rates[1] == 0 {
		t.Error("SLO levels must be rate limited")
	}
	if rates[2] != 0 {
		t.Error("lowest level must be unlimited")
	}
}

func TestQJumpPassesUnlimitedLevelThrough(t *testing.T) {
	net := buildNet(t, 2, func() wfq.Scheduler { return wfq.NewSPQ(3, 2<<20) })
	s := sim.New(1)
	eps := make([]*transport.Endpoint, 2)
	for i := range eps {
		eps[i] = transport.NewEndpoint(net, net.Host(i), transport.Config{
			NewCC: func() transport.CC { return transport.Fixed{W: 64} },
		})
	}
	qj := NewQJump(eps[0], QJumpConfig{LevelRates: []sim.Rate{1 * sim.Gbps, 0, 0}})
	done := 0
	qj.Send(s, &transport.Message{ID: 1, Dst: 1, Class: qos.Low, Bytes: 1 << 20,
		OnComplete: func(*sim.Simulator, *transport.Message) { done++ }})
	s.Run()
	if done != 1 {
		t.Fatal("unlimited level message did not complete")
	}
	// 1 MB at ~100 Gbps takes ~85 µs; far below the 8 ms a 1 Gbps
	// limiter would impose.
	if s.Now() > sim.Time(1*sim.Millisecond) {
		t.Errorf("unlimited level took %v; rate limit leaked", s.Now())
	}
}

func TestQJumpThrottlesLimitedLevel(t *testing.T) {
	net := buildNet(t, 2, func() wfq.Scheduler { return wfq.NewSPQ(3, 2<<20) })
	s := sim.New(1)
	eps := make([]*transport.Endpoint, 2)
	for i := range eps {
		eps[i] = transport.NewEndpoint(net, net.Host(i), transport.Config{
			NewCC: func() transport.CC { return transport.Fixed{W: 64} },
		})
	}
	qj := NewQJump(eps[0], QJumpConfig{LevelRates: []sim.Rate{1 * sim.Gbps, 0, 0}})
	completions := 0
	var last sim.Time
	// 10 × 64 KB on the 1 Gbps level: sustained rate is bucket-limited,
	// so total time ≈ (10−1)×64KB / 1Gbps ≈ 4.7 ms.
	for i := 0; i < 10; i++ {
		qj.Send(s, &transport.Message{ID: uint64(i + 1), Dst: 1, Class: qos.High, Bytes: 64 << 10,
			OnComplete: func(s *sim.Simulator, _ *transport.Message) { completions++; last = s.Now() }})
	}
	s.Run()
	if completions != 10 {
		t.Fatalf("completed %d of 10", completions)
	}
	if last < sim.Time(4*sim.Millisecond) {
		t.Errorf("10 throttled messages finished in %v; limiter ineffective", last)
	}
}

func TestHomaDelivers(t *testing.T) {
	net := buildNet(t, 3, func() wfq.Scheduler { return wfq.NewPriorityQueue(6 << 20) })
	s := sim.New(1)
	homas := make([]*Homa, 3)
	for i := range homas {
		homas[i] = NewHoma(net.Host(i), HomaConfig{})
	}
	done := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		id := uint64(i + 1)
		homas[i%2].Send(s, &transport.Message{
			ID: id, Dst: 2, Class: qos.High, Bytes: int64(1+i) * 10240,
			OnComplete: func(_ *sim.Simulator, m *transport.Message) { done[m.ID] = true },
		})
	}
	s.Run()
	if len(done) != 20 {
		t.Fatalf("completed %d of 20", len(done))
	}
}

func TestHomaUnscheduledWindow(t *testing.T) {
	net := buildNet(t, 2, func() wfq.Scheduler { return wfq.NewPriorityQueue(6 << 20) })
	s := sim.New(1)
	h0 := NewHoma(net.Host(0), HomaConfig{})
	NewHoma(net.Host(1), HomaConfig{})
	// A message within the 25 KiB unscheduled window completes without
	// any grants.
	ok := false
	h0.Send(s, &transport.Message{ID: 1, Dst: 1, Class: qos.High, Bytes: 8 << 10,
		OnComplete: func(*sim.Simulator, *transport.Message) { ok = true }})
	s.Run()
	if !ok {
		t.Fatal("unscheduled-only message did not complete")
	}
}

func TestHomaSRPTOrdering(t *testing.T) {
	// Two concurrent messages to the same receiver: the small one must
	// complete first even though it was sent second.
	net := buildNet(t, 3, func() wfq.Scheduler { return wfq.NewPriorityQueue(6 << 20) })
	s := sim.New(1)
	hs := make([]*Homa, 3)
	for i := range hs {
		hs[i] = NewHoma(net.Host(i), HomaConfig{})
	}
	var order []uint64
	rec := func(_ *sim.Simulator, m *transport.Message) { order = append(order, m.ID) }
	hs[0].Send(s, &transport.Message{ID: 1, Dst: 2, Class: qos.High, Bytes: 1 << 20, OnComplete: rec})
	hs[1].Send(s, &transport.Message{ID: 2, Dst: 2, Class: qos.High, Bytes: 32 << 10, OnComplete: rec})
	s.Run()
	if len(order) != 2 || order[0] != 2 {
		t.Errorf("completion order %v, want small message (2) first", order)
	}
}

func TestHomaLossRecovery(t *testing.T) {
	// Tiny switch buffer forces drops; the resend timer must still
	// complete every message.
	net := buildNet(t, 3, func() wfq.Scheduler { return wfq.NewPriorityQueue(16 * 1500) })
	s := sim.New(1)
	hs := make([]*Homa, 3)
	for i := range hs {
		hs[i] = NewHoma(net.Host(i), HomaConfig{})
	}
	done := 0
	for i := 0; i < 6; i++ {
		hs[i%2].Send(s, &transport.Message{ID: uint64(i + 1), Dst: 2, Class: qos.High, Bytes: 128 << 10,
			OnComplete: func(*sim.Simulator, *transport.Message) { done++ }})
	}
	s.Run()
	if done != 6 {
		t.Fatalf("completed %d of 6 with losses", done)
	}
}

func deadlineSetup(t *testing.T, policy DeadlinePolicy, hosts int) (*sim.Simulator, *DeadlineFabric, []*DeadlineSender) {
	t.Helper()
	net := buildNet(t, hosts, func() wfq.Scheduler { return wfq.NewFIFO(6 << 20) })
	s := sim.New(1)
	f := NewDeadlineFabric(hosts, DeadlineConfig{Policy: policy})
	senders := make([]*DeadlineSender, hosts)
	for i := range senders {
		senders[i] = NewDeadlineSender(f, net.Host(i))
	}
	return s, f, senders
}

func TestD3MeetsFeasibleDeadlines(t *testing.T) {
	s, f, senders := deadlineSetup(t, PolicyD3, 3)
	var completed []sim.Time
	var deadlines []sim.Time
	for i := 0; i < 5; i++ {
		dl := s.Now() + sim.Time(200*sim.Microsecond)
		deadlines = append(deadlines, dl)
		senders[i%2].Send(s, &transport.Message{
			ID: uint64(i + 1), Dst: 2, Class: qos.High, Bytes: 32 << 10, Deadline: dl,
			OnComplete: func(s *sim.Simulator, _ *transport.Message) { completed = append(completed, s.Now()) },
		})
	}
	s.Run()
	if len(completed) != 5 {
		t.Fatalf("completed %d of 5 (terminated %d)", len(completed), f.Terminated)
	}
	for i, ct := range completed {
		if ct > deadlines[i]+sim.Time(50*sim.Microsecond) {
			t.Errorf("flow %d finished at %v, deadline %v", i, ct, deadlines[i])
		}
	}
}

func TestPDQEDFPreference(t *testing.T) {
	s, _, senders := deadlineSetup(t, PolicyPDQ, 3)
	var order []uint64
	rec := func(_ *sim.Simulator, m *transport.Message) { order = append(order, m.ID) }
	// Same size; the tighter deadline must finish first under EDF even
	// though it was submitted second.
	senders[0].Send(s, &transport.Message{ID: 1, Dst: 2, Class: qos.High, Bytes: 256 << 10,
		Deadline: sim.Time(10 * sim.Millisecond), OnComplete: rec})
	senders[1].Send(s, &transport.Message{ID: 2, Dst: 2, Class: qos.High, Bytes: 256 << 10,
		Deadline: sim.Time(1 * sim.Millisecond), OnComplete: rec})
	s.Run()
	if len(order) != 2 || order[0] != 2 {
		t.Errorf("completion order %v, want EDF flow (2) first", order)
	}
}

func TestDeadlineTerminationInfeasible(t *testing.T) {
	s, f, senders := deadlineSetup(t, PolicyD3, 3)
	// 10 MB with a 10 µs deadline cannot complete at 100 Gbps.
	senders[0].Send(s, &transport.Message{ID: 1, Dst: 2, Class: qos.High, Bytes: 10 << 20,
		Deadline: sim.Time(10 * sim.Microsecond)})
	s.Run()
	if f.Terminated != 1 {
		t.Errorf("Terminated = %d, want 1", f.Terminated)
	}
}

func TestDeadlinelessFlowsGetLeftover(t *testing.T) {
	s, f, senders := deadlineSetup(t, PolicyD3, 3)
	done := 0
	senders[0].Send(s, &transport.Message{ID: 1, Dst: 2, Class: qos.Low, Bytes: 256 << 10,
		OnComplete: func(*sim.Simulator, *transport.Message) { done++ }})
	s.Run()
	if done != 1 {
		t.Fatalf("deadline-less flow starved (terminated %d)", f.Terminated)
	}
}

// Atomic two-link grants: concurrent cross traffic (0→2 and 1→0) must
// both progress — the regression that starved PDQ when links were
// allocated independently.
func TestCrossTrafficBothProgress(t *testing.T) {
	s, _, senders := deadlineSetup(t, PolicyPDQ, 3)
	done := map[uint64]bool{}
	rec := func(_ *sim.Simulator, m *transport.Message) { done[m.ID] = true }
	senders[0].Send(s, &transport.Message{ID: 1, Dst: 2, Class: qos.High, Bytes: 512 << 10,
		Deadline: sim.Time(5 * sim.Millisecond), OnComplete: rec})
	senders[1].Send(s, &transport.Message{ID: 2, Dst: 0, Class: qos.High, Bytes: 512 << 10,
		Deadline: sim.Time(5 * sim.Millisecond), OnComplete: rec})
	s.Run()
	if !done[1] || !done[2] {
		t.Errorf("cross traffic stalled: %v", done)
	}
}
