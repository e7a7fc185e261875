package rpc

import (
	"reflect"
	"testing"
	"unsafe"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// lastSender is a transport that keeps the last message it was handed, for
// the test to complete: what Issue allocates is then the RPC stack's alone.
type lastSender struct{ m *transport.Message }

func (l *lastSender) Send(_ *sim.Simulator, m *transport.Message) { l.m = m }

// issueCase is one shape of an RPC's life the allocation budget is stated
// for: allocs is per RPC, the RPC from NewRPC included.
type issueCase struct {
	name    string
	policy  RetryPolicy
	retries int64 // time-outs to sit through before the completion
	hedge   bool  // complete on the hedged duplicate
	overlap bool  // complete each RPC only after the next is issued
	allocs  float64
}

// An RPC and its attempts go back to the stack once the transport has
// called each transmission back. lastSender never calls back a
// superseded transmission — the original a retry or a hedge replaced, the
// first retry of two — so each of those is one allocation per RPC: the
// original holds the RPC, a superseded retry its attempt record. "plain"
// has no policy, "tracked-no-policy" neither but one RPC always in flight
// beside it, so each completion moves the other's in-flight slot, and
// "tracked" a time-out armed that never fires.
var issueCases = []issueCase{
	{name: "plain", allocs: 0},
	{name: "tracked-no-policy", overlap: true, allocs: 0},
	{name: "tracked", policy: RetryPolicy{Timeout: 8 * sim.Millisecond, MaxRetries: 3}, allocs: 0},
	{name: "one-retry", policy: RetryPolicy{Timeout: 8 * sim.Millisecond, MaxRetries: 3}, retries: 1, allocs: 1},
	{name: "two-retries", policy: RetryPolicy{Timeout: 8 * sim.Millisecond, MaxRetries: 3}, retries: 2, allocs: 2},
	{name: "hedged", policy: RetryPolicy{HedgeAfter: 20 * sim.Microsecond, HedgeClass: qos.Low}, hedge: true, allocs: 1},
}

// issueLoop returns a function that issues one RPC from NewRPC on a fresh
// stack and sees it through to completion, and the stack.
func issueLoop(tc issueCase) (func(), *Stack) {
	ep := &lastSender{}
	st := NewStack(ep, nil)
	st.Retry = tc.policy
	s := sim.New(1)
	var held *transport.Message
	return func() {
		r := st.NewRPC()
		r.Dst, r.Priority, r.Bytes = 1, qos.PC, 4096
		st.Issue(s, r)
		for want := st.Stats.Retried + tc.retries; st.Stats.Retried < want; {
			s.Step()
		}
		for tc.hedge && ep.m.Class != qos.Low {
			s.Step()
		}
		m := ep.m
		if tc.overlap {
			if m, held = held, m; m == nil {
				return
			}
		}
		m.OnComplete(s, m)
		// Fire the cancelled timers, so their slots are free for the next RPC
		// as they are in a run.
		s.Run()
	}, st
}

// TestIssueAllocs is the allocation budget of the issue path: none for an
// RPC whose transmissions all come back, and no closure anywhere (a
// closure per callback was three more per attempt). An RPC stays within
// 256 bytes, four cache lines.
func TestIssueAllocs(t *testing.T) {
	if n := unsafe.Sizeof(RPC{}); n > 256 {
		t.Errorf("RPC is %d bytes, want at most 256", n)
	}
	const warm, runs = 64, 200
	for _, tc := range issueCases {
		t.Run(tc.name, func(t *testing.T) {
			one, st := issueLoop(tc)
			for i := 0; i < warm; i++ {
				one() // grows the free lists, the in-flight record, the event slab and the lanes
			}
			if got := testing.AllocsPerRun(runs, one); got > tc.allocs {
				t.Errorf("%v allocations per RPC, want at most %v", got, tc.allocs)
			}
			n, out := int64(warm+runs+1), 0
			if tc.overlap {
				out = 1
			}
			if st.Stats.Completed != n-int64(out) || st.Stats.Retried != n*tc.retries || st.InflightLen() != out {
				t.Errorf("stats %+v, %d in flight: want %d completed, %d retried, %d in flight", st.Stats, st.InflightLen(), n-int64(out), n*tc.retries, out)
			}
			if tc.hedge && st.Stats.HedgeWins != n {
				t.Errorf("HedgeWins = %d, want %d", st.Stats.HedgeWins, n)
			}
		})
	}
}

// TestRPCReleaseRule pins when an RPC goes back to its stack: once it is
// terminal and no transmission of it is out, zeroed; never while a
// transport holds one; never when the caller made it.
func TestRPCReleaseRule(t *testing.T) {
	s := sim.New(1)
	ep := &lastSender{}
	st := NewStack(ep, nil)
	issue := func(r *RPC) *RPC {
		r.Dst, r.Priority, r.Bytes = 1, qos.PC, 4096
		st.Issue(s, r)
		return r
	}
	reused := func(r *RPC) bool {
		next := st.NewRPC()
		if next == r && !reflect.DeepEqual(*next, RPC{owned: true}) {
			t.Fatalf("reused RPC not zeroed: %+v", *next)
		}
		return next == r
	}

	r := issue(st.NewRPC())
	ep.m.OnComplete(s, ep.m)
	if !reused(r) {
		t.Error("completed RPC not reused")
	}
	mine := issue(&RPC{})
	ep.m.OnComplete(s, ep.m)
	if reused(mine) || mine.RNL != 0 || mine.CompleteTime != s.Now() || mine.ID == 0 {
		t.Errorf("caller's RPC reused or cleared: %+v", *mine)
	}

	// The hedge wins while the original is out: the RPC is held until the
	// original comes back too.
	st.Retry = RetryPolicy{HedgeAfter: 20 * sim.Microsecond, HedgeClass: qos.Low}
	r = issue(st.NewRPC())
	original := ep.m
	s.Run()
	ep.m.OnComplete(s, ep.m)
	if st.Stats.HedgeWins != 1 || reused(r) {
		t.Fatal("RPC reused while its original transmission is out")
	}
	original.OnComplete(s, original)
	if !reused(r) {
		t.Error("RPC not reused once its last transmission came back")
	}

	st.Retry = RetryPolicy{}
	st.admitter = dropAll{}
	if r = issue(st.NewRPC()); !reused(r) {
		t.Error("RPC dropped at admission not reused")
	}
	st.Crash(s)
	if r = issue(st.NewRPC()); !reused(r) || st.Stats.NotIssued != 1 {
		t.Error("RPC not issued by a crashed stack not reused")
	}
}

// BenchmarkIssue is the cost of the RPC stack around one RPC, the transport
// and the network left out: issue, admission, bookkeeping and completion,
// with no policy and with a time-out armed.
func BenchmarkIssue(b *testing.B) {
	for _, tc := range []issueCase{issueCases[0], issueCases[2]} {
		b.Run(tc.name, func(b *testing.B) {
			one, _ := issueLoop(tc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				one()
			}
		})
	}
}
