// Package rpc implements the RPC stack that sits between applications and
// the transport: RPC issue with priority annotation, the Phase-1 mapping
// of priorities to QoS classes, the admission-control hook where Aequitas
// plugs in, and RPC network-latency (RNL) measurement as defined in
// Appendix A — t0 when the stack hands the RPC to its Sender, t1 when the
// last byte is acknowledged, so host-side queueing in a Sender counts.
//
// An RPC from Stack.NewRPC is its stack's until Stack.OnComplete returns,
// so an OnComplete must not retain it. The stack takes an object back,
// zeroed, for reuse when the run drops its last reference to it: an RPC
// once it is terminal and no transport holds a transmission of it, a
// retry's or hedge's attempt record once its transport has called it
// back. What a crashed transport discards is never called back and is
// left to the garbage collector; an RPC a caller built is never reused.
package rpc

import (
	"aequitas/internal/netsim"
	"aequitas/internal/obs"
	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// RPC is one remote procedure call as seen by the network: the payload
// direction only (the paper measures the payload side, which dominates
// bytes 200:1 to 400:1).
type RPC struct {
	ID       uint64
	Dst      int
	Priority qos.Priority
	Bytes    int64

	// QoSRequested is the Phase-1 mapping of the priority; QoSRun is the
	// class the RPC was actually issued on after admission control.
	QoSRequested qos.Class
	QoSRun       qos.Class
	// Downgraded reports whether admission control demoted the RPC to
	// the lowest class; it is the explicit notification of Algorithm 1
	// lines 10-11.
	Downgraded bool
	// owned, done, backoffArmed and slot are the stack's (see msg).
	owned, done, backoffArmed bool
	slot                      int32

	IssueTime    sim.Time
	CompleteTime sim.Time
	// RNL is the measured RPC network latency: CompleteTime − IssueTime,
	// where IssueTime is also the instant the stack handed the RPC to its
	// Sender.
	RNL sim.Duration
	// SizeMTUs is the RPC size in MTUs, the unit of Algorithm 1's
	// normalised SLO and size-proportional decrease.
	SizeMTUs int64
	// PAdmit is the admit probability the admission decision was made
	// against (Decision.PAdmit).
	PAdmit float64

	// Deadline optionally propagates to deadline-aware baselines.
	Deadline sim.Time

	// The rest is the stack's. msg is the first transmission, its Ctx the
	// RPC; st the issuing stack, whose free list takes back an owned RPC
	// (from NewRPC). live counts transmissions a transport holds, retries
	// those after the first; done is the terminal state late callbacks
	// check; backoffArmed a retry pending in timer, so OnFail on an
	// original and its hedge spends the budget once; slot is the RPC's
	// index in the stack's in-flight record while it is not terminal;
	// timer is the per-attempt timeout or the back-off.
	msg               transport.Message
	st                *Stack
	timer, hedgeTimer sim.Handle
	live, retries     int32
}

// Decision is an admission-control verdict for one RPC: made once, by the
// admitter, and carried unchanged to whoever acts on it or reports it —
// the RPC stack, the serving adapters, the tracer, the flight recorder.
type Decision struct {
	// Class is the QoS class to run the RPC on.
	Class qos.Class
	// Downgraded reports that Class is a demotion to the scavenger class.
	// Applications receive this explicitly (Algorithm 1 lines 10-11) and
	// may react by prioritising their most critical RPCs.
	Downgraded bool
	// Dropped reports that the RPC must not be sent at all. Aequitas never
	// does this on its own (downgrade-not-drop is a core design choice,
	// §5); it occurs under the drop-based ablation, and under a quota
	// running fail-closed while the quota plane is out.
	Dropped bool
	// PAdmit is the admit probability the draw was compared against: 1
	// where no draw decided (a class without an SLO, the quota bypass, an
	// admitter without a probability), 0 for a fail-closed drop.
	PAdmit float64
}

// Verdict names the decision's outcome — the one enum for it.
func (d Decision) Verdict() flight.Verdict {
	switch {
	case d.Dropped:
		return flight.VerdictDrop
	case d.Downgraded:
		return flight.VerdictDowngrade
	}
	return flight.VerdictAdmit
}

// Admitter decides, at RPC issue, which QoS class an RPC runs on and
// learns from completed RPC latency measurements. The Aequitas controller
// implements this; PassThrough is the no-admission-control baseline.
//
// The interface is time-source-free: an admitter that needs timestamps
// or randomness brings its own clock (the core controller's Clock), so
// the same implementation serves both the discrete-event simulator and
// live wall-clock traffic.
type Admitter interface {
	// Admit returns the verdict for an RPC of sizeMTUs toward dst.
	Admit(dst int, requested qos.Class, sizeMTUs int64) Decision
	// Observe feeds back one completed RPC's measured RNL on the class
	// it actually ran on.
	Observe(dst int, run qos.Class, rnl sim.Duration, sizeMTUs int64)
}

// PassThrough admits every RPC on its requested class: the "w/o Aequitas"
// configuration.
type PassThrough struct{}

// Admit implements Admitter.
func (PassThrough) Admit(_ int, requested qos.Class, _ int64) Decision {
	return Decision{Class: requested, PAdmit: 1}
}

// Observe implements Admitter.
func (PassThrough) Observe(int, qos.Class, sim.Duration, int64) {}

// Stats counts per-stack RPC activity.
type Stats struct {
	Issued     int64
	Completed  int64
	Downgraded int64
	Dropped    int64

	// Robustness counters: zero unless a RetryPolicy arms timers or a
	// fault fails a transmission.
	TimedOut  int64 // per-attempt timeouts observed
	Retried   int64 // retry attempts actually sent
	Hedged    int64 // hedged duplicates sent
	HedgeWins int64 // completions won by the hedged duplicate
	Failed    int64 // RPCs abandoned after the retry budget
	CrashLost int64 // in-flight RPCs lost when this host crashed
	NotIssued int64 // application sends discarded while the host was down
}

// Sender is the transport-layer service the RPC stack requires: reliable
// message delivery with a completion callback. transport.Endpoint is the
// standard implementation; baseline systems (Homa, D3, PDQ, QJump)
// substitute their own.
type Sender interface {
	Send(s *sim.Simulator, m *transport.Message)
}

// Stack is one host's RPC layer.
type Stack struct {
	ep       Sender
	admitter Admitter
	// OnAdmit and OnComplete, when set, observe every admission decision
	// and every completed RPC (for experiment metrics). Neither may keep
	// r: an RPC from NewRPC is reused once OnComplete has returned.
	OnAdmit    func(s *sim.Simulator, r *RPC, d Decision)
	OnComplete func(s *sim.Simulator, r *RPC)
	Stats      Stats

	// Trace, when set, receives issue/admit/complete/lost lifecycle
	// events; Src identifies this stack's host in those events. Off by
	// default so the issue path stays free of observability work.
	Trace *obs.Tracer
	Src   int

	// Retry enables client-side timeouts, retries, and hedging; the zero
	// policy arms nothing, and faults (host crashes, peer resets) still
	// fail in-flight RPCs.
	Retry RetryPolicy
	// down marks a crashed host: Issue discards RPCs until Restart.
	down bool

	nextID uint64
	// inflight holds the issued RPCs that are not yet terminal, each at
	// its slot: the one record behind Outstanding, ForEachOutstanding and
	// Crash.
	inflight []*RPC
	// free and attempts are the released RPCs and attempt records.
	free     []*RPC
	attempts []*attempt
}

// NewStack attaches an RPC stack to a transport sender. admitter may be
// nil, meaning PassThrough.
func NewStack(ep Sender, admitter Admitter) *Stack {
	if admitter == nil {
		admitter = PassThrough{}
	}
	return &Stack{ep: ep, admitter: admitter}
}

// NewRPC returns a zero RPC, released or new, that the stack takes back
// once the run is done with it (see the package doc).
func (st *Stack) NewRPC() *RPC {
	if n := len(st.free); n > 0 {
		r := st.free[n-1]
		st.free = st.free[:n-1]
		return r
	}
	return &RPC{owned: true}
}

// release takes back a terminal RPC from NewRPC, zeroed, unless a
// transport still holds a transmission of it.
func (st *Stack) release(r *RPC) {
	if r.owned && r.live == 0 {
		*r = RPC{owned: true}
		st.free = append(st.free, r)
	}
}

// track records r in flight.
func (st *Stack) track(r *RPC) {
	r.slot = int32(len(st.inflight))
	st.inflight = append(st.inflight, r)
}

// untrack removes r from the in-flight record, moving the last entry
// into its slot.
func (st *Stack) untrack(r *RPC) {
	n := len(st.inflight) - 1
	last := st.inflight[n]
	st.inflight[r.slot], last.slot = last, r.slot
	st.inflight[n] = nil
	st.inflight = st.inflight[:n]
}

// Outstanding reports the number of incomplete RPCs toward dst across all
// classes.
func (st *Stack) Outstanding(dst int) int {
	total := 0
	for _, r := range st.inflight {
		if r.Dst == dst {
			total++
		}
	}
	return total
}

// ForEachOutstanding calls f once per incomplete RPC with its destination
// and the class it runs on, in no particular order: periodic samplers
// accumulate per-destination totals in one pass over the stack.
func (st *Stack) ForEachOutstanding(f func(dst int, c qos.Class)) {
	for _, r := range st.inflight {
		f(r.Dst, r.QoSRun)
	}
}

// Issue sends one RPC: maps its priority to a QoS class (Phase 1), asks
// the admission controller for the class to run on (Phase 2), records it
// in flight, hands the message to the Sender, arms the hedge timer if the
// policy has one, and measures RNL on completion. The caller
// must not use an RPC from NewRPC after Issue: the stack may reuse it
// from then on.
func (st *Stack) Issue(s *sim.Simulator, r *RPC) {
	if st.down {
		// Crashed host: the application's send is lost. The generator's
		// offered-byte accounting still advances, so goodput availability
		// reflects the outage.
		st.Stats.NotIssued++
		st.release(r)
		return
	}
	st.nextID++
	if r.ID == 0 {
		r.ID = st.nextID
	}
	r.st = st
	r.QoSRequested = qos.MapPriorityToQoS(r.Priority)
	r.SizeMTUs = netsim.MTUsFor(r.Bytes)
	r.IssueTime = s.Now()

	if st.Trace != nil {
		st.Trace.Issue(s.Now(), r.ID, st.Src, r.Dst, int(r.Priority), int(r.QoSRequested), r.Bytes)
	}
	d := st.admitter.Admit(r.Dst, r.QoSRequested, r.SizeMTUs)
	st.Stats.Issued++
	r.PAdmit = d.PAdmit
	if st.OnAdmit != nil {
		st.OnAdmit(s, r, d)
	}
	if st.Trace != nil {
		st.Trace.Admit(s.Now(), r.ID, st.Src, r.Dst, int(d.Class), d.Verdict(), d.PAdmit)
	}
	if d.Dropped {
		st.Stats.Dropped++
		st.release(r)
		return
	}
	r.QoSRun = d.Class
	r.Downgraded = d.Downgraded
	if d.Downgraded {
		st.Stats.Downgraded++
	}
	st.track(r)
	st.transmit(s, r, r.QoSRun, false)
	if d := st.Retry.HedgeAfter; d > 0 && (st.Retry.HedgeMaxMTUs == 0 || r.SizeMTUs <= st.Retry.HedgeMaxMTUs) {
		r.hedgeTimer = s.After(d, (*hedgeEvent)(r))
	}
}

// complete finishes r on its first returning transmission — later ones,
// the hedge loser or a pre-timeout original straggling home, are ignored
// — with its RNL measured from issue, and tells the admitter, the
// observers and the application.
func (st *Stack) complete(s *sim.Simulator, r *RPC, isHedge bool) {
	if r.done {
		return
	}
	st.end(r)
	if isHedge {
		st.Stats.HedgeWins++
	}
	r.CompleteTime = s.Now()
	r.RNL = r.CompleteTime - r.IssueTime
	st.Stats.Completed++
	st.admitter.Observe(r.Dst, r.QoSRun, r.RNL, r.SizeMTUs)
	if st.Trace != nil {
		st.Trace.Complete(s.Now(), r.ID, st.Src, r.Dst, int(r.QoSRun), r.Bytes, r.RNL)
	}
	if st.OnComplete != nil {
		st.OnComplete(s, r)
	}
}
