package rpc

import (
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// RetryPolicy configures client-side RPC robustness: per-attempt
// timeouts with capped exponential backoff and deterministic jitter, a
// bounded retry budget, and optional RepFlow-style hedged duplicates.
// The zero value disables everything.
type RetryPolicy struct {
	// Timeout is the per-attempt deadline. 0 disables timeouts and
	// retries (faults can still fail RPCs via transport resets).
	Timeout sim.Duration
	// MaxRetries bounds retry attempts after the first send.
	MaxRetries int
	// Backoff is the base retry delay, doubled per consecutive retry;
	// 0 defaults to Timeout/2.
	Backoff sim.Duration
	// MaxBackoff caps the (pre-jitter) backoff; 0 leaves it uncapped.
	MaxBackoff sim.Duration
	// JitterFrac adds a uniform random fraction [0, JitterFrac) of the
	// backoff on top, drawn from the simulator RNG (deterministic per
	// seed). It decorrelates retry storms after a shared fault.
	JitterFrac float64
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

// active reports whether the policy does anything.
func (p RetryPolicy) active() bool { return p.Timeout > 0 || p.HedgeAfter > 0 }

// inflightRPC tracks one issued, not-yet-completed RPC under the robust
// issue path.
type inflightRPC struct {
	st      *Stack
	r       *RPC
	retries int
	// done marks the terminal state (completed, failed, or lost to a
	// crash); late attempt callbacks check it and bail.
	done bool
	// backoffArmed marks that timer holds a pending retry, so a second
	// failure signal (e.g. OnFail on both the original and its hedge
	// when a peer crashes) does not double-consume the retry budget.
	backoffArmed bool
	timer        sim.Handle // per-attempt timeout or retry backoff
	hedgeTimer   sim.Handle
}

// tracking reports whether Issue routes through the robust path.
func (st *Stack) tracking() bool { return st.TrackInflight || st.Retry.active() }

// InflightLen reports tracked in-flight RPCs (tests).
func (st *Stack) InflightLen() int { return len(st.inflight) }

// Down reports whether the stack is crashed.
func (st *Stack) Down() bool { return st.down }

// issueTracked is the robust continuation of Issue: the RPC is recorded
// in-flight, attempts carry timeout/fail callbacks, and an optional
// hedge timer is armed.
func (st *Stack) issueTracked(s *sim.Simulator, r *RPC) {
	if st.inflight == nil {
		st.inflight = make(map[uint64]*inflightRPC)
	}
	fs := &inflightRPC{st: st, r: r}
	st.inflight[r.ID] = fs
	st.sendAttempt(s, fs, r.QoSRun, false)
	if d := st.Retry.HedgeAfter; d > 0 && (st.Retry.HedgeMaxMTUs == 0 || r.SizeMTUs <= st.Retry.HedgeMaxMTUs) {
		fs.hedgeTimer = s.After(d, (*hedgeEvent)(fs))
	}
}

// attempt is the one allocation of a transmission of a tracked RPC: the
// message, behind its Ctx the RPC it is an attempt of, and, as a sim.Event,
// the attempt's own time-out.
type attempt struct {
	msg   transport.Message
	fs    *inflightRPC
	hedge bool
}

// Run implements sim.Event: the attempt's deadline expired.
func (a *attempt) Run(s *sim.Simulator) { a.fs.st.onTimeout(s, a.fs) }

// attemptDone and attemptFailed are the OnComplete and OnFail of every
// tracked attempt.
func attemptDone(s *sim.Simulator, m *transport.Message) {
	a := m.Ctx.(*attempt)
	a.fs.st.attemptDone(s, a.fs, a.hedge)
}

func attemptFailed(s *sim.Simulator, m *transport.Message) {
	a := m.Ctx.(*attempt)
	a.fs.st.retryOrFail(s, a.fs)
}

// retryEvent and hedgeEvent are an inflightRPC seen as its back-off and its
// hedge timer: the conversion gives each a Run of its own, so arming one
// allocates nothing.
type (
	retryEvent inflightRPC
	hedgeEvent inflightRPC
)

// Run implements sim.Event: the back-off is over, send the next attempt.
func (e *retryEvent) Run(s *sim.Simulator) {
	fs := (*inflightRPC)(e)
	fs.backoffArmed = false
	if fs.done {
		return
	}
	fs.st.Stats.Retried++
	fs.st.sendAttempt(s, fs, fs.r.QoSRun, false)
}

// Run implements sim.Event: send the one duplicate attempt on the hedge
// class.
func (e *hedgeEvent) Run(s *sim.Simulator) {
	fs := (*inflightRPC)(e)
	if fs.done {
		return
	}
	fs.st.Stats.Hedged++
	fs.st.sendAttempt(s, fs, fs.st.Retry.HedgeClass, true)
}

// sendAttempt transmits one attempt of the RPC on class and (for
// non-hedge attempts) arms the per-attempt timeout.
func (st *Stack) sendAttempt(s *sim.Simulator, fs *inflightRPC, class qos.Class, isHedge bool) {
	r := fs.r
	a := &attempt{fs: fs, hedge: isHedge}
	a.msg = transport.Message{
		ID:         r.ID,
		Dst:        r.Dst,
		Class:      class,
		Bytes:      r.Bytes,
		Deadline:   r.Deadline,
		OnComplete: attemptDone,
		OnFail:     attemptFailed,
		Ctx:        a,
	}
	st.ep.Send(s, &a.msg)
	if !isHedge && st.Retry.Timeout > 0 {
		fs.timer.Cancel()
		fs.timer = s.After(st.Retry.Timeout, a)
	}
}

// attemptDone completes the RPC on its first finishing attempt; later
// attempts (the hedge loser, a pre-timeout original straggling home) are
// ignored.
func (st *Stack) attemptDone(s *sim.Simulator, fs *inflightRPC, isHedge bool) {
	if fs.done {
		return
	}
	fs.done = true
	fs.timer.Cancel()
	fs.hedgeTimer.Cancel()
	delete(st.inflight, fs.r.ID)
	if isHedge {
		st.Stats.HedgeWins++
	}
	st.complete(s, fs.r, fs.r.IssueTime)
}

// onTimeout handles a per-attempt deadline expiring. On the RPC's first
// timeout the elapsed latency is fed to the admitter as a measurement: a
// timeout is an SLO miss, and reporting it is what lets admission
// control react *during* an outage instead of only after late
// completions trickle in. Later attempts of the same RPC don't
// re-penalize — one lost RPC is one miss, so the controller's recovery
// can begin as soon as the fault clears rather than after the whole
// retry tail has drained.
func (st *Stack) onTimeout(s *sim.Simulator, fs *inflightRPC) {
	if fs.done {
		return
	}
	st.Stats.TimedOut++
	if fs.retries == 0 {
		r := fs.r
		st.admitter.Observe(r.Dst, r.QoSRun, s.Now()-r.IssueTime, r.SizeMTUs)
	}
	st.retryOrFail(s, fs)
}

// retryOrFail schedules the next attempt after a backoff, or gives up
// when the budget is spent (or retries are disabled).
func (st *Stack) retryOrFail(s *sim.Simulator, fs *inflightRPC) {
	if fs.done || fs.backoffArmed {
		return
	}
	if st.Retry.Timeout <= 0 || fs.retries >= st.Retry.MaxRetries {
		st.fail(s, fs)
		return
	}
	fs.retries++
	fs.backoffArmed = true
	fs.timer.Cancel()
	fs.timer = s.After(st.backoffFor(s, fs.retries), (*retryEvent)(fs))
}

// backoffFor computes the capped exponential backoff with jitter for the
// given retry attempt (1-based).
func (st *Stack) backoffFor(s *sim.Simulator, attempt int) sim.Duration {
	base := st.Retry.Backoff
	if base <= 0 {
		base = st.Retry.Timeout / 2
	}
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := base << shift
	if max := st.Retry.MaxBackoff; max > 0 && d > max {
		d = max
	}
	if f := st.Retry.JitterFrac; f > 0 {
		d += sim.Duration(f * float64(d) * s.Rand().Float64())
	}
	return d
}

// fail abandons the RPC: accounting is released and attribution state
// dropped so the pending map cannot leak.
func (st *Stack) fail(s *sim.Simulator, fs *inflightRPC) {
	fs.done = true
	fs.timer.Cancel()
	fs.hedgeTimer.Cancel()
	delete(st.inflight, fs.r.ID)
	st.outstanding[outKey{fs.r.Dst, fs.r.QoSRun}]--
	st.Stats.Failed++
	st.Attr.Drop(st.Src, fs.r.ID)
}

// Crash simulates this host failing: every in-flight RPC is lost (its
// timers cancelled, its attribution state dropped), outstanding-RPC
// accounting clears, and the stack stops issuing until Restart. The
// caller is responsible for crashing the transport endpoint and
// resetting the admission controller alongside.
func (st *Stack) Crash(s *sim.Simulator) {
	st.down = true
	for id, fs := range st.inflight {
		fs.done = true
		fs.timer.Cancel()
		fs.hedgeTimer.Cancel()
		st.Stats.CrashLost++
		st.Attr.Drop(st.Src, id)
	}
	clear(st.inflight)
	clear(st.outstanding)
}

// Restart brings a crashed stack back; accounting starts empty.
func (st *Stack) Restart() { st.down = false }
