package rpc

import (
	"testing"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// lastSender is a transport that keeps the last message it was handed, for
// the test to complete: what Issue allocates is then the RPC stack's alone.
type lastSender struct{ m *transport.Message }

func (l *lastSender) Send(s *sim.Simulator, m *transport.Message) {
	m.SubmitTime = s.Now()
	l.m = m
}

// issueCase is one shape of an RPC's life the allocation budget is stated
// for: allocs is per RPC, beyond the caller's *RPC.
type issueCase struct {
	name    string
	policy  RetryPolicy
	track   bool
	retries int64 // time-outs to sit through before the completion
	hedge   bool  // complete on the hedged duplicate
	allocs  float64
}

var issueCases = []issueCase{
	{name: "plain", allocs: 1},
	{name: "tracked-no-policy", track: true, allocs: 2},
	{name: "tracked", policy: RetryPolicy{Timeout: 8 * sim.Millisecond, MaxRetries: 3}, allocs: 2},
	{name: "one-retry", policy: RetryPolicy{Timeout: 8 * sim.Millisecond, MaxRetries: 3}, retries: 1, allocs: 3},
	{name: "two-retries", policy: RetryPolicy{Timeout: 8 * sim.Millisecond, MaxRetries: 3}, retries: 2, allocs: 4},
	{name: "hedged", policy: RetryPolicy{HedgeAfter: 20 * sim.Microsecond, HedgeClass: qos.Low}, hedge: true, allocs: 3},
}

// issueLoop returns a function that issues one RPC on a fresh stack and
// sees it through to completion, and the stack. The caller's *RPC is one
// value used again: nothing holds an RPC past its completion.
func issueLoop(tc issueCase) (func(), *Stack) {
	ep := &lastSender{}
	st := NewStack(ep, nil)
	st.Retry, st.TrackInflight = tc.policy, tc.track
	s := sim.New(1)
	r := new(RPC)
	return func() {
		*r = RPC{Dst: 1, Priority: qos.PC, Bytes: 4096}
		st.Issue(s, r)
		for want := st.Stats.Retried + tc.retries; st.Stats.Retried < want; {
			s.Step()
		}
		for tc.hedge && ep.m.Class != qos.Low {
			s.Step()
		}
		ep.m.OnComplete(s, ep.m)
		// Fire the cancelled timers, so their slots are free for the next RPC
		// as they are in a run.
		s.Run()
	}, st
}

// TestIssueAllocs is the allocation budget of the issue path: one record
// per untracked RPC, one per tracked RPC plus one per attempt, and no
// closure anywhere (a closure per callback was three more per attempt).
func TestIssueAllocs(t *testing.T) {
	const warm, runs = 64, 200
	for _, tc := range issueCases {
		t.Run(tc.name, func(t *testing.T) {
			one, st := issueLoop(tc)
			for i := 0; i < warm; i++ {
				one() // grows the maps, the event slab and the lanes
			}
			if got := testing.AllocsPerRun(runs, one); got > tc.allocs {
				t.Errorf("%v allocations per RPC, want at most %v", got, tc.allocs)
			}
			n := int64(warm + runs + 1)
			if st.Stats.Completed != n || st.Stats.Retried != n*tc.retries || st.InflightLen() != 0 {
				t.Errorf("stats %+v, %d in flight: want %d completed, %d retried, 0 in flight", st.Stats, st.InflightLen(), n, n*tc.retries)
			}
			if tc.hedge && st.Stats.HedgeWins != n {
				t.Errorf("HedgeWins = %d, want %d", st.Stats.HedgeWins, n)
			}
		})
	}
}

// BenchmarkIssue is the cost of the RPC stack around one RPC, the transport
// and the network left out: issue, admission, bookkeeping and completion,
// plain and on the tracked path with a time-out armed.
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
