package rpc

import (
	"testing"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// holdSender is a transport that holds every message it is handed until
// the test completes or fails it, and loses them all when its host
// crashes.
type holdSender struct{ held []*transport.Message }

func (h *holdSender) Send(_ *sim.Simulator, m *transport.Message) { h.held = append(h.held, m) }

// take removes and returns the held message at i modulo the count.
func (h *holdSender) take(i int) *transport.Message {
	i %= len(h.held)
	m := h.held[i]
	h.held = append(h.held[:i], h.held[i+1:]...)
	return m
}

// scripted returns the verdict the test set before each issue.
type scripted struct{ next Decision }

func (a *scripted) Admit(_ int, requested qos.Class, _ int64) Decision {
	d := a.next
	if !d.Dropped && !d.Downgraded {
		d.Class = requested
	}
	return d
}
func (*scripted) Observe(int, qos.Class, sim.Duration, int64) {}

// lifecycleDsts is how many destinations the fuzzed stack sends to.
const lifecycleDsts = 4

// checkLedger asserts that every issued RPC is in exactly one place —
// completed, failed, lost to a crash, dropped at admission, or in the
// one in-flight record — and that the record's slots and per-destination
// counts agree with it.
func checkLedger(t *testing.T, st *Stack, step int) {
	t.Helper()
	s := st.Stats
	if s.Issued != s.Completed+s.Failed+s.CrashLost+s.Dropped+int64(st.InflightLen()) {
		t.Fatalf("step %d: issued %d != completed %d + failed %d + crash-lost %d + dropped %d + in flight %d",
			step, s.Issued, s.Completed, s.Failed, s.CrashLost, s.Dropped, st.InflightLen())
	}
	for i, r := range st.inflight {
		if int(r.slot) != i || r.done {
			t.Fatalf("step %d: in-flight entry %d has slot %d, done %v", step, i, r.slot, r.done)
		}
	}
	sum := 0
	for dst := 1; dst <= lifecycleDsts; dst++ {
		sum += st.Outstanding(dst)
	}
	if sum != st.InflightLen() {
		t.Fatalf("step %d: Outstanding sums to %d over destinations, %d in flight", step, sum, st.InflightLen())
	}
}

// FuzzStackLifecycle drives one stack through random issues, transport
// completions and failures, timer events, crashes and restarts, and after
// every step checks the ledger. The first byte picks the retry policy;
// each following byte is one step, its low three bits the operation.
func FuzzStackLifecycle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1})                        // no policy: issue two, complete both
	f.Add([]byte{1, 0, 8, 3, 3, 3, 3, 1, 1, 1})         // time-outs and retries, then completions
	f.Add([]byte{6, 0, 0, 3, 3, 1, 9, 2, 4, 5, 0, 1})   // hedges, a failure, a crash, a restart
	f.Add([]byte{7, 48, 56, 0, 2, 2, 3, 3, 3, 3, 3, 3}) // a drop, a downgrade, failures into retries
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		p := ops[0]
		var policy RetryPolicy
		if p&1 != 0 {
			policy.Timeout = 10 * sim.Microsecond
			policy.MaxRetries = int(p >> 3 % 4)
		}
		if p&2 != 0 {
			policy.HedgeAfter = 5 * sim.Microsecond
			policy.HedgeClass = qos.Low
		}
		if p&4 != 0 {
			policy.HedgeMaxMTUs = 1
		}
		ep, adm := &holdSender{}, &scripted{}
		st := NewStack(ep, adm)
		st.Retry = policy
		s := sim.New(1)
		for i, b := range ops[1:] {
			if i == 1000 {
				break
			}
			arg := int(b >> 3)
			switch b & 7 {
			case 0, 6: // issue
				adm.next = Decision{PAdmit: 1}
				switch {
				case arg%7 == 6:
					adm.next = Decision{Dropped: true}
				case arg%5 == 4:
					adm.next = Decision{Class: qos.Low, Downgraded: true}
				}
				r := st.NewRPC()
				r.Dst = 1 + arg%lifecycleDsts
				r.Priority = qos.Priority(arg % 3)
				r.Bytes = int64(1 + arg%3*2000)
				st.Issue(s, r)
			case 1: // the transport completes a held transmission
				if len(ep.held) > 0 {
					m := ep.take(arg)
					m.OnComplete(s, m)
				}
			case 2: // the transport fails a held transmission
				if len(ep.held) > 0 {
					m := ep.take(arg)
					m.OnFail(s, m)
				}
			case 3, 7: // a timer fires
				s.Step()
			case 4: // the host crashes: its transport drops what it held
				st.Crash(s)
				ep.held = ep.held[:0]
			case 5:
				st.Restart()
			}
			checkLedger(t, st, i)
		}
	})
}
