package rpc

import (
	"testing"

	"aequitas/internal/netsim"
	"aequitas/internal/obs"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
	"aequitas/internal/wfq"
)

// robustSetup builds hosts whose stacks run policy, returning the
// network, stacks, and endpoints (for injecting transport faults).
func robustSetup(t *testing.T, hosts int, policy RetryPolicy) (*netsim.Network, []*Stack, []*transport.Endpoint) {
	t.Helper()
	net, err := netsim.New(netsim.Config{
		Hosts: hosts,
		SwitchSched: func() wfq.Scheduler {
			return wfq.NewWFQ([]float64{8, 4, 1}, 2<<20)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stacks := make([]*Stack, hosts)
	eps := make([]*transport.Endpoint, hosts)
	for i := 0; i < hosts; i++ {
		eps[i] = transport.NewEndpoint(net, net.Host(i), transport.Config{
			NewCC:  func() transport.CC { return transport.SwiftDefaults(10 * sim.Microsecond) },
			RTOMin: 50 * sim.Microsecond,
		})
		stacks[i] = NewStack(eps[i], nil)
		stacks[i].Src = i
		stacks[i].Retry = policy
	}
	return net, stacks, eps
}

// TestRetryRecoversThroughOutage drops an RPC into a link blackhole; the
// timeout/retry path must re-send after the link heals and complete the
// RPC exactly once.
func TestRetryRecoversThroughOutage(t *testing.T) {
	net, stacks, _ := robustSetup(t, 2, RetryPolicy{
		Timeout: sim.Duration(200 * sim.Microsecond), MaxRetries: 5,
	})
	s := sim.New(1)
	completions := 0
	stacks[0].OnComplete = func(*sim.Simulator, *RPC) { completions++ }
	// Blackhole host 0's uplink before issue; heal it mid-run.
	net.Host(0).Uplink.SetDown(s, true)
	stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 32 * 1024})
	s.AtFunc(sim.Time(sim.Millisecond), func(s *sim.Simulator) {
		net.Host(0).Uplink.SetDown(s, false)
	})
	s.Run()
	if completions != 1 {
		t.Fatalf("completed %d times, want 1", completions)
	}
	st := stacks[0].Stats
	if st.TimedOut == 0 || st.Retried == 0 {
		t.Errorf("stats %+v: expected timeouts and retries", st)
	}
	if st.Failed != 0 {
		t.Errorf("RPC marked failed despite completing: %+v", st)
	}
	if stacks[0].Outstanding(1) != 0 || stacks[0].InflightLen() != 0 {
		t.Error("accounting not released after completion")
	}
}

// TestRetryBudgetExhaustion keeps the link dead: the RPC must be abandoned
// after MaxRetries attempts, releasing all accounting.
func TestRetryBudgetExhaustion(t *testing.T) {
	net, stacks, _ := robustSetup(t, 2, RetryPolicy{
		Timeout: sim.Duration(100 * sim.Microsecond), MaxRetries: 2,
	})
	s := sim.New(1)
	stacks[0].OnComplete = func(*sim.Simulator, *RPC) { t.Error("dead-link RPC completed") }
	net.Host(0).Uplink.SetDown(s, true)
	stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 8 * 1024})
	// Bound the run: the abandoned transport message keeps retrying into
	// the dead link (the RPC layer gave up; the byte stream does not).
	s.RunUntil(sim.Time(100 * sim.Millisecond))
	st := stacks[0].Stats
	if st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1 (stats %+v)", st.Failed, st)
	}
	if st.Retried != 2 {
		t.Errorf("Retried = %d, want exactly the budget (2)", st.Retried)
	}
	if st.TimedOut != 3 {
		t.Errorf("TimedOut = %d, want 3 (initial + 2 retries)", st.TimedOut)
	}
	if stacks[0].Outstanding(1) != 0 || stacks[0].InflightLen() != 0 {
		t.Error("failed RPC leaked accounting")
	}
}

// TestHedgeWinsOnSlowPath issues an RPC whose original class is stuck
// behind a saturated queue while the hedge class is clear: the hedge
// completes first and is counted as the win, and the straggling original
// must not double-complete.
func TestHedgeWinsOnSlowPath(t *testing.T) {
	_, stacks, eps := robustSetup(t, 2, RetryPolicy{
		HedgeAfter: sim.Duration(20 * sim.Microsecond),
		HedgeClass: qos.Low,
	})
	s := sim.New(1)
	// Saturate the High class with a huge background transfer so the
	// probe RPC's original attempt serialises far behind it.
	eps[0].Send(s, &transport.Message{ID: 1000, Dst: 1, Class: qos.High, Bytes: 4 << 20})
	completions := 0
	stacks[0].OnComplete = func(*sim.Simulator, *RPC) { completions++ }
	stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 8 * 1024})
	s.Run()
	if completions != 1 {
		t.Fatalf("completed %d times, want 1", completions)
	}
	st := stacks[0].Stats
	if st.Hedged != 1 || st.HedgeWins != 1 {
		t.Errorf("Hedged = %d HedgeWins = %d, want 1/1", st.Hedged, st.HedgeWins)
	}
	if stacks[0].Outstanding(1) != 0 || stacks[0].InflightLen() != 0 {
		t.Error("hedged RPC leaked accounting")
	}
}

// TestHedgeSizeBound verifies HedgeMaxMTUs exempts large RPCs from
// replication.
func TestHedgeSizeBound(t *testing.T) {
	_, stacks, _ := robustSetup(t, 2, RetryPolicy{
		HedgeAfter:   sim.Duration(sim.Microsecond),
		HedgeClass:   qos.Low,
		HedgeMaxMTUs: 2,
	})
	s := sim.New(1)
	stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 64 * 1024}) // > 2 MTUs
	s.Run()
	if stacks[0].Stats.Hedged != 0 {
		t.Errorf("oversized RPC was hedged: %+v", stacks[0].Stats)
	}
}

// TestCrashClearsOutstanding is the harness invariant behind the fault
// figure: a crashed host's in-flight RPCs are not counted outstanding
// after restart, so samplers don't report ghosts forever.
func TestCrashClearsOutstanding(t *testing.T) {
	net, stacks, eps := robustSetup(t, 3, RetryPolicy{})
	s := sim.New(1)
	// Blackhole host 0's uplink so its issued RPCs stay in flight.
	net.Host(0).Uplink.SetDown(s, true)
	for i := 0; i < 5; i++ {
		stacks[0].Issue(s, &RPC{Dst: 1 + i%2, Priority: qos.PC, Bytes: 16 * 1024})
	}
	if stacks[0].Outstanding(1)+stacks[0].Outstanding(2) != 5 {
		t.Fatalf("outstanding before crash = %d+%d, want 5",
			stacks[0].Outstanding(1), stacks[0].Outstanding(2))
	}
	stacks[0].Crash(s)
	eps[0].Crash(s)
	if stacks[0].Outstanding(1) != 0 || stacks[0].Outstanding(2) != 0 {
		t.Error("outstanding not cleared by crash")
	}
	ghosts := 0
	stacks[0].ForEachOutstanding(func(int, qos.Class) { ghosts++ })
	if ghosts != 0 {
		t.Errorf("ForEachOutstanding visited %d ghost entries", ghosts)
	}
	if stacks[0].Stats.CrashLost != 5 {
		t.Errorf("CrashLost = %d, want 5", stacks[0].Stats.CrashLost)
	}
	// While down, issues are discarded and counted.
	stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 1024})
	if stacks[0].Stats.NotIssued != 1 || stacks[0].Outstanding(1) != 0 {
		t.Error("down stack accepted an issue")
	}
	// After restart, new RPCs flow and complete normally.
	stacks[0].Restart()
	eps[0].Restart(s)
	net.Host(0).Uplink.SetDown(s, false)
	completed := 0
	stacks[0].OnComplete = func(*sim.Simulator, *RPC) { completed++ }
	stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 16 * 1024})
	s.Run()
	if completed != 1 {
		t.Fatalf("post-restart RPC completed %d times", completed)
	}
	if stacks[0].Outstanding(1) != 0 {
		t.Error("outstanding nonzero after post-restart completion")
	}
}

// TestAttributionNoLeakUnderFaults drives every fault-induced RPC exit
// path — crash loss, retry-budget failure, and normal completion after
// retries — and verifies the tracer holds no attribution state at the end.
func TestAttributionNoLeakUnderFaults(t *testing.T) {
	net, stacks, eps := robustSetup(t, 3, RetryPolicy{
		Timeout: sim.Duration(150 * sim.Microsecond), MaxRetries: 4,
	})
	tr := obs.NewTracer(obs.Sinks{Attr: obs.NewAttributor()})
	for _, st := range stacks {
		st.Trace = tr
	}
	s := sim.New(1)

	// Path 1: crash loss. Host 0 issues into a blackhole, then crashes.
	net.Host(0).Uplink.SetDown(s, true)
	for i := 0; i < 3; i++ {
		stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 8 * 1024})
	}
	stacks[0].Crash(s)
	eps[0].Crash(s)
	if tr.InFlight() != 0 {
		t.Fatalf("pending = %d after crash, want 0", tr.InFlight())
	}
	stacks[0].Restart()
	eps[0].Restart(s)
	net.Host(0).Uplink.SetDown(s, false)

	// Path 2: retry-budget failure. Host 1's uplink stays dead.
	net.Host(1).Uplink.SetDown(s, true)
	stacks[1].Issue(s, &RPC{Dst: 2, Priority: qos.PC, Bytes: 8 * 1024})

	// Path 3: retries that eventually succeed, from host 2 through a
	// temporary blackhole.
	net.Host(2).Uplink.SetDown(s, true)
	stacks[2].Issue(s, &RPC{Dst: 0, Priority: qos.PC, Bytes: 8 * 1024})
	s.AtFunc(sim.Time(500*sim.Microsecond), func(s *sim.Simulator) {
		net.Host(2).Uplink.SetDown(s, false)
	})

	// Host 1's link never heals, so its transport stream retries forever:
	// bound the run like the harness does.
	s.RunUntil(sim.Time(100 * sim.Millisecond))
	if tr.InFlight() != 0 {
		t.Errorf("pending = %d at end of run, want 0", tr.InFlight())
	}
	if stacks[1].Stats.Failed != 1 {
		t.Errorf("host 1 Failed = %d, want 1", stacks[1].Stats.Failed)
	}
	if stacks[2].Stats.Completed != 1 {
		t.Errorf("host 2 Completed = %d, want 1", stacks[2].Stats.Completed)
	}
}

// TestBackoffSchedule pins the delay before each retry: Timeout/2 doubled
// per consecutive retry up to a shift of 16, constant after it, and drawn
// from nothing, so arming a retry leaves the simulator's RNG where it was.
func TestBackoffSchedule(t *testing.T) {
	const timeout = 100 * sim.Microsecond
	st := &Stack{Retry: RetryPolicy{Timeout: timeout, MaxRetries: 20}}
	for k := 1; k <= 20; k++ {
		want := timeout / 2
		for i := 1; i < k && i <= 16; i++ {
			want *= 2
		}
		s := sim.New(1)
		r := &RPC{retries: int32(k - 1)}
		st.retryOrFail(s, r)
		if !r.backoffArmed || r.retries != int32(k) {
			t.Fatalf("retry %d: not armed (retries %d)", k, r.retries)
		}
		r.done = true // the back-off fires without sending
		s.Run()
		if got := sim.Duration(s.Now()); got != want {
			t.Errorf("retry %d: back-off %v, want %v", k, got, want)
		}
		if got, fresh := s.Rand().Int63(), sim.New(1).Rand().Int63(); got != fresh {
			t.Errorf("retry %d: back-off drew from the RNG", k)
		}
	}
}
