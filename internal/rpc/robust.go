package rpc

import (
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// RetryPolicy configures client-side RPC robustness: per-attempt
// timeouts, a bounded retry budget with exponential backoff (backoffFor),
// and optional RepFlow-style hedged duplicates. The zero value disables
// everything.
type RetryPolicy struct {
	// Timeout is the per-attempt deadline. 0 disables timeouts and
	// retries (faults can still fail RPCs via transport resets).
	Timeout sim.Duration
	// MaxRetries bounds retry attempts after the first send.
	MaxRetries int
	// HedgeAfter, when > 0, sends one duplicate of each still-incomplete
	// RPC after that delay (RepFlow's replication for tail latency). The
	// first completion wins; the loser's bytes are wasted work.
	HedgeAfter sim.Duration
	// HedgeClass is the QoS class hedged duplicates run on. Hedges ride
	// a different class so the duplicate takes an independent path
	// through per-class connections and queues (a same-class duplicate
	// would serialise behind the original on its byte stream). The run
	// wires this to the scavenger class.
	HedgeClass qos.Class
	// HedgeMaxMTUs, when > 0, hedges only RPCs of at most this size, so
	// replication cost stays bounded (RepFlow replicates short flows
	// only).
	HedgeMaxMTUs int64
}

// InflightLen reports the RPCs in flight (tests).
func (st *Stack) InflightLen() int { return len(st.inflight) }

// attempt is a retry or a hedge of an RPC: the message, and behind
// its Ctx the RPC it is an attempt of.
type attempt struct {
	msg   transport.Message
	r     *RPC
	hedge bool
}

// attemptDone and attemptFailed are the OnComplete and OnFail of every
// transmission.
func attemptDone(s *sim.Simulator, m *transport.Message) {
	r, hedge := returned(m)
	st := r.st
	st.complete(s, r, hedge)
	st.release(r)
}

func attemptFailed(s *sim.Simulator, m *transport.Message) {
	r, _ := returned(m)
	st := r.st
	st.retryOrFail(s, r)
	if r.done {
		st.release(r)
	}
}

// returned takes one transmission of an RPC back from its
// transport: an attempt record goes to the free list, and the RPC has one
// transmission fewer out.
func returned(m *transport.Message) (r *RPC, hedge bool) {
	if a, ok := m.Ctx.(*attempt); ok {
		r, hedge = a.r, a.hedge
		*a = attempt{}
		r.st.attempts = append(r.st.attempts, a)
	} else {
		r = m.Ctx.(*RPC)
	}
	r.live--
	return r, hedge
}

// timeoutEvent, retryEvent and hedgeEvent are an RPC seen as its
// per-attempt timeout, its back-off and its hedge timer: the conversion
// gives each a Run of its own, so arming one allocates nothing.
type (
	timeoutEvent RPC
	retryEvent   RPC
	hedgeEvent   RPC
)

// Run implements sim.Event: the attempt's deadline expired.
func (e *timeoutEvent) Run(s *sim.Simulator) { r := (*RPC)(e); r.st.onTimeout(s, r) }

// Run implements sim.Event: the back-off is over, send the next attempt.
func (e *retryEvent) Run(s *sim.Simulator) {
	r := (*RPC)(e)
	r.backoffArmed = false
	if r.done {
		return
	}
	r.st.Stats.Retried++
	r.st.transmit(s, r, r.QoSRun, false)
}

// Run implements sim.Event: send the one duplicate attempt on the hedge
// class.
func (e *hedgeEvent) Run(s *sim.Simulator) {
	r := (*RPC)(e)
	if r.done {
		return
	}
	r.st.Stats.Hedged++
	r.st.transmit(s, r, r.st.Retry.HedgeClass, true)
}

// transmit hands one transmission of r on class to the transport — the
// first in r's own message, a retry or a hedge in an attempt record, a
// released one if there is one — and, unless it is a hedge, arms the
// per-attempt timeout.
func (st *Stack) transmit(s *sim.Simulator, r *RPC, class qos.Class, isHedge bool) {
	m, ctx := &r.msg, any(r)
	if m.OnComplete != nil { // r's own message has been sent
		var a *attempt
		if n := len(st.attempts); n > 0 {
			a, st.attempts = st.attempts[n-1], st.attempts[:n-1]
		} else {
			a = new(attempt)
		}
		a.r, a.hedge = r, isHedge
		m, ctx = &a.msg, a
	}
	r.live++
	*m = transport.Message{
		ID:         r.ID,
		Dst:        r.Dst,
		Class:      class,
		Bytes:      r.Bytes,
		Deadline:   r.Deadline,
		OnComplete: attemptDone,
		OnFail:     attemptFailed,
		Ctx:        ctx,
	}
	st.ep.Send(s, m)
	if !isHedge && st.Retry.Timeout > 0 {
		r.timer.Cancel()
		r.timer = s.After(st.Retry.Timeout, (*timeoutEvent)(r))
	}
}

// end makes r terminal: its timers are cancelled and it leaves the
// in-flight record.
func (st *Stack) end(r *RPC) {
	r.done = true
	r.timer.Cancel()
	r.hedgeTimer.Cancel()
	st.untrack(r)
}

// onTimeout handles a per-attempt deadline expiring. On the RPC's first
// timeout the elapsed latency is fed to the admitter as a measurement: a
// timeout is an SLO miss, and reporting it is what lets admission
// control react *during* an outage instead of only after late
// completions trickle in. Later attempts of the same RPC don't
// re-penalize — one lost RPC is one miss, so the controller's recovery
// can begin as soon as the fault clears rather than after the whole
// retry tail has drained.
func (st *Stack) onTimeout(s *sim.Simulator, r *RPC) {
	if r.done {
		return
	}
	st.Stats.TimedOut++
	if r.retries == 0 {
		st.admitter.Observe(r.Dst, r.QoSRun, s.Now()-r.IssueTime, r.SizeMTUs)
	}
	st.retryOrFail(s, r)
}

// retryOrFail schedules the next attempt after a backoff, or gives up
// when the budget is spent (or retries are disabled).
func (st *Stack) retryOrFail(s *sim.Simulator, r *RPC) {
	if r.done || r.backoffArmed {
		return
	}
	if st.Retry.Timeout <= 0 || int(r.retries) >= st.Retry.MaxRetries {
		st.fail(s, r)
		return
	}
	r.retries++
	r.backoffArmed = true
	r.timer.Cancel()
	r.timer = s.After(st.backoffFor(int(r.retries)), (*retryEvent)(r))
}

// backoffFor is the delay before the given retry (1-based): Timeout/2,
// doubled per consecutive retry up to a shift of 16, with no jitter.
func (st *Stack) backoffFor(retry int) sim.Duration {
	return st.Retry.Timeout / 2 << min(retry-1, 16)
}

// fail abandons the RPC: it leaves the in-flight record and its
// attribution state is dropped so the pending map cannot leak.
func (st *Stack) fail(s *sim.Simulator, r *RPC) {
	st.end(r)
	st.Stats.Failed++
	st.Trace.Lost(st.Src, r.ID)
}

// Crash simulates this host failing: every in-flight RPC is lost (its
// timers cancelled, its attribution state dropped), the in-flight record
// empties, and the stack stops issuing until Restart. The caller is
// responsible for crashing the transport endpoint and resetting the
// admission controller alongside.
func (st *Stack) Crash(s *sim.Simulator) {
	st.down = true
	for len(st.inflight) > 0 {
		r := st.inflight[len(st.inflight)-1]
		st.end(r)
		st.Stats.CrashLost++
		st.Trace.Lost(st.Src, r.ID)
		st.release(r)
	}
}

// Restart brings a crashed stack back; accounting starts empty.
func (st *Stack) Restart() { st.down = false }
