// Package core implements the Aequitas distributed admission controller —
// Algorithm 1 of the paper, verbatim: a per-(destination-host, QoS) admit
// probability driven by AIMD on measured RPC network latency against
// per-QoS SLO targets, with unadmitted RPCs downgraded to the lowest
// (scavenger) class rather than dropped.
//
// One Controller instance lives at each sending host. Hosts run the
// algorithm with no coordination; fairness and convergence to the
// SLO-compliant QoS-mix are emergent properties of the AIMD dynamics
// (§5.1, §6.5).
//
// The Controller is safe for concurrent use and its time source is
// pluggable (see Clock): under a SimClock it reproduces the simulator's
// deterministic single-threaded behaviour bit for bit, under a WallClock
// it serves live traffic from many goroutines. Admission state is one
// table indexed by (destination, class), dense ids in (dst, class) order,
// with the admit probability read atomically, so the Admit fast path is
// two atomic loads and a bounds check: no locks, no allocations. Observe
// writes p_admit only when it changes, by compare-and-swap; the only lock
// it takes is the channel's, once per increment window, to claim the
// additive increase. The counters are striped by the P a call runs on,
// so calls on different cores write different cache lines.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"aequitas/internal/netsim"
	"aequitas/internal/obs"
	"aequitas/internal/obs/flight"
	"aequitas/internal/proc"
	"aequitas/internal/qos"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
)

// Config parameterises the controller. The defaults are the paper's
// evaluation settings: α = 0.01, β = 0.01 per MTU (§6.1).
type Config struct {
	// Levels is the number of QoS classes (≥ 2). The highest Levels-1
	// classes carry SLOs; the last is the scavenger.
	Levels int
	// LatencyTargets[k] is the per-MTU RNL SLO for class k. The entry
	// for the lowest class is ignored (no SLO). Targets are normalised
	// per MTU so that larger RPCs get proportionally larger absolute
	// targets (§5.1, "Handling different RPC sizes").
	LatencyTargets []sim.Duration
	// TargetPercentiles[k] is the percentile at which class k's SLO is
	// defined (e.g. 99.9). It sets the additive-increase window:
	// increment_window = latency_target · 100/(100 − pctl), so a higher
	// tail makes the algorithm more conservative (Algorithm 1 line 4).
	TargetPercentiles []float64
	// Alpha is the additive increment applied at most once per
	// increment window.
	Alpha float64
	// Beta is the multiplicative decrement per SLO miss per MTU.
	Beta float64
	// Floor is the lower bound on the admit probability, preventing
	// starvation: at zero no RPC would run on the class, so no further
	// measurements could raise the probability again (§5.1).
	Floor float64

	// Ablation switches (all false in the paper's design).

	// NoIncrementWindow applies the additive increase on every
	// SLO-compliant completion instead of once per window.
	NoIncrementWindow bool
	// NoSizeScaledMD makes the multiplicative decrease a constant β
	// regardless of RPC size.
	NoSizeScaledMD bool
	// DropInsteadOfDowngrade rejects unadmitted RPCs instead of
	// demoting them to the scavenger class.
	DropInsteadOfDowngrade bool
}

// Defaults3 returns the paper's 3-QoS configuration with the given
// per-MTU latency targets for QoSh and QoSm, both at the 99.9th
// percentile.
func Defaults3(targetHigh, targetMedium sim.Duration) Config {
	return Config{
		Levels:            3,
		LatencyTargets:    []sim.Duration{targetHigh, targetMedium, 0},
		TargetPercentiles: []float64{99.9, 99.9, 0},
		Alpha:             0.01,
		Beta:              0.01,
		Floor:             0.01,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Levels < 2 {
		return fmt.Errorf("core: need at least 2 QoS levels, got %d", c.Levels)
	}
	if len(c.LatencyTargets) != c.Levels {
		return fmt.Errorf("core: %d latency targets for %d levels", len(c.LatencyTargets), c.Levels)
	}
	if len(c.TargetPercentiles) != c.Levels {
		return fmt.Errorf("core: %d percentiles for %d levels", len(c.TargetPercentiles), c.Levels)
	}
	for k := 0; k < c.Levels-1; k++ {
		if c.LatencyTargets[k] <= 0 {
			return fmt.Errorf("core: class %d needs a positive latency target", k)
		}
		if p := c.TargetPercentiles[k]; p < 50 || p >= 100 {
			return fmt.Errorf("core: class %d percentile %v out of [50, 100)", k, p)
		}
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("core: α = %v out of (0, 1]", c.Alpha)
	}
	if c.Beta <= 0 || c.Beta > 1 {
		return fmt.Errorf("core: β = %v out of (0, 1]", c.Beta)
	}
	if c.Floor < 0 || c.Floor >= 1 {
		return fmt.Errorf("core: floor = %v out of [0, 1)", c.Floor)
	}
	return nil
}

// incrementWindow computes Algorithm 1 line 4 for class k.
func (c Config) incrementWindow(k int) sim.Duration {
	pctl := c.TargetPercentiles[k]
	return sim.Duration(float64(c.LatencyTargets[k]) * 100 / (100 - pctl))
}

// IncrementWindow reports class's additive-increase window — the
// earliest interval after which a rejected sender could see a higher
// admit probability, and therefore the natural Retry-After hint for a
// load-shedding server. Classes without an SLO report zero.
func (ct *Controller) IncrementWindow(class qos.Class) sim.Duration {
	if class < 0 || class >= ct.lowest {
		return 0
	}
	return ct.windows[class]
}

// Stats counts controller activity: a snapshot, summed over the
// controller's counter stripes by Controller.Stats.
type Stats struct {
	Admitted   int64
	Downgraded int64
	Dropped    int64
	SLOMisses  int64
	SLOMet     int64
	// Expired counts requests rejected before the admission draw because
	// their remaining deadline budget could not cover the observed
	// latency floor (serving mode only; see RecordExpired).
	Expired int64
}

// statStripes is the number of stripes the controller's counters are
// spread over; a call counts on the stripe of the P it runs on (proc.ID), so
// calls on different cores write different cache lines. A power of two
// so the stripe is a mask.
const statStripes = 8

// statStripe is one stripe of Stats: six counters in 48 bytes, padded to
// 128 so no two stripes' counters share a cache line (or the pair of
// lines the adjacent-line prefetcher fetches together) wherever the
// array lands.
type statStripe struct {
	admitted, downgraded, dropped, sloMisses, sloMet, expired atomic.Int64
	_                                                         [80]byte
}

// Stats returns the controller's cumulative counters, summed over the
// stripes; safe to call while other goroutines admit and observe.
func (ct *Controller) Stats() Stats {
	var s Stats
	for i := range ct.stats {
		st := &ct.stats[i]
		s.Admitted += st.admitted.Load()
		s.Downgraded += st.downgraded.Load()
		s.Dropped += st.dropped.Load()
		s.SLOMisses += st.sloMisses.Load()
		s.SLOMet += st.sloMet.Load()
		s.Expired += st.expired.Load()
	}
	return s
}

// stripe is the counter stripe of the P the caller runs on.
func (ct *Controller) stripe() *statStripe { return &ct.stats[proc.ID()&(statStripes-1)] }

// classState is one (dst, class) admission channel. The admit
// probability lives in p as float64 bits: Admit reads it with one atomic
// load, and every write is a compare-and-swap on the value it read, so a
// decrease needs no lock and no update is lost. reopens is the clock
// reading after which the additive-increase window is open again
// (lastIncrease + window; math.MinInt64 before the first increase): a met
// completion inside the window reads it and returns without a lock or a
// write. mu serialises only the claiming of a window.
type classState struct {
	p       atomic.Uint64
	reopens atomic.Int64
	mu      sync.Mutex
}

func (st *classState) load() float64 { return math.Float64frombits(st.p.Load()) }

// add moves p by delta, clamped to [lo, hi], with a compare-and-swap on
// the value it read, retried if another update came between, and returns
// the value it left. A move the clamp cancels writes nothing.
func (st *classState) add(delta, lo, hi float64) float64 {
	for {
		old := st.p.Load()
		p := math.Float64frombits(old)
		next := min(max(p+delta, lo), hi)
		if next == p || st.p.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

// Controller is the per-host admission controller. It implements
// rpc.Admitter and is safe for concurrent use when its Clock is.
type Controller struct {
	cfg    Config
	lowest qos.Class
	clock  Clock
	// windows[k] is the precomputed additive-increase window per class.
	windows []sim.Duration
	// chans is the channel table: slot dst·(Levels−1)+class holds that
	// channel's state, nil until the channel is first touched, so walking
	// the slots visits the channels in (dst, class) order. Readers load
	// the table and the slot without a lock; chansMu serialises filling a
	// slot and growing the table, which copies it into a larger one.
	chans   atomic.Pointer[[]atomic.Pointer[classState]]
	chansMu sync.Mutex
	// The pad keeps chans, which every call reads, off the first counter
	// stripe's cache line.
	_     [64]byte
	stats [statStripes]statStripe

	// flight, when set, receives a Record per admission decision and per
	// SLO observation — the flight-recorder tap. flightSrc names this
	// controller in the records (the sending host id in a simulation).
	// The disabled path is a single nil check on the fast path.
	flight    *flight.Ring
	flightSrc int32
	// quota, when set, is the §5.2 branch in front of the draw.
	quota atomic.Pointer[quotaGate]
}

// New builds a Controller on the monotonic wall clock — the live serving
// configuration. The configuration must validate.
func New(cfg Config) (*Controller, error) {
	return NewWithClock(cfg, nil)
}

// NewWithClock builds a Controller on an explicit time source. A nil
// clock defaults to a fresh WallClock. Simulations pass a SimClock so
// admission draws come from the simulator's deterministic RNG stream.
func NewWithClock(cfg Config, clk Clock) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clk == nil {
		clk = NewWallClock()
	}
	ct := &Controller{
		cfg:     cfg,
		lowest:  qos.Class(cfg.Levels - 1),
		clock:   clk,
		windows: make([]sim.Duration, cfg.Levels),
	}
	for k := 0; k < cfg.Levels-1; k++ {
		ct.windows[k] = cfg.incrementWindow(k)
	}
	return ct, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the controller's configuration.
func (ct *Controller) Config() Config { return ct.cfg }

// Clock returns the controller's time source.
func (ct *Controller) Clock() Clock { return ct.clock }

// Scavenger reports the lowest configured class — the SLO-free level
// that carries best-effort and downgraded traffic.
func (ct *Controller) Scavenger() qos.Class { return ct.lowest }

// SetFlight attaches a flight recorder: every admission decision and
// SLO observation is recorded into r, tagged with src as the recording
// controller's id. A nil r detaches. Set before serving begins; the tap
// itself is lock-free and allocation-free, and with no recorder attached
// the fast path pays one nil check.
func (ct *Controller) SetFlight(r *flight.Ring, src int) {
	ct.flight = r
	ct.flightSrc = int32(src)
}

// record is the flight-recorder tap for Admit, kept out of line so the
// recorder-off fast path stays lean. The quota bypass is marked as such:
// those RPCs were admitted without consulting p_admit. A drop runs on no
// class; its record keeps the one it asked for.
func (ct *Controller) record(now sim.Time, dst int, requested qos.Class, d rpc.Decision, bypass bool, sizeMTUs int64) {
	if bypass {
		ct.flight.QuotaBypassDecision(now, ct.flightSrc, int32(dst), int8(requested), int32(sizeMTUs))
		return
	}
	got := d.Class
	if d.Dropped {
		got = requested
	}
	ct.flight.Decision(now, ct.flightSrc, int32(dst), int8(requested), int8(got), d.Verdict(), d.PAdmit, int32(sizeMTUs))
}

// Reset discards all learned admission state, returning every channel to
// its initial p_admit of 1 — the state loss a host crash implies
// (Algorithm 1 keeps its state in sender memory only). Cumulative Stats
// are kept; they describe the whole run.
func (ct *Controller) Reset() {
	ct.chansMu.Lock()
	ct.chans.Store(nil)
	ct.chansMu.Unlock()
}

// channels returns the channel table, nil before the first channel.
func (ct *Controller) channels() []atomic.Pointer[classState] {
	if t := ct.chans.Load(); t != nil {
		return *t
	}
	return nil
}

// classState returns the channel state for (dst, class), creating it at
// p_admit = 1 on first touch (Algorithm 1 line 3). The hit path is
// lock-free.
func (ct *Controller) classState(dst int, class qos.Class) *classState {
	slot := dst*int(ct.lowest) + int(class)
	if t := ct.channels(); uint(slot) < uint(len(t)) {
		if st := t[slot].Load(); st != nil {
			return st
		}
	}
	return ct.create(slot)
}

// create fills slot under chansMu, first copying the table into one
// large enough when it is too small. The copy is published whole, so a
// reader sees either table, and a slot filled in place is one atomic
// store.
func (ct *Controller) create(slot int) *classState {
	ct.chansMu.Lock()
	defer ct.chansMu.Unlock()
	t := ct.channels()
	if slot < len(t) {
		if st := t[slot].Load(); st != nil {
			return st
		}
	} else {
		next := make([]atomic.Pointer[classState], max(slot+1, 2*len(t)))
		for i := range t {
			next[i].Store(t[i].Load())
		}
		ct.chans.Store(&next)
		t = next
	}
	st := &classState{}
	st.p.Store(math.Float64bits(1)) // Algorithm 1 line 3
	st.reopens.Store(math.MinInt64)
	t[slot].Store(st)
	return st
}

// AdmitProbability exposes the current p_admit for a (dst, class) pair,
// for convergence instrumentation (Figures 17, 18, 28, 29). It is 1 where
// nothing is ever refused: on a class without an SLO, and on a nil
// Controller — a host that runs no admission control.
func (ct *Controller) AdmitProbability(dst int, class qos.Class) float64 {
	if ct == nil || class < 0 || class >= ct.lowest {
		return 1
	}
	return ct.classState(dst, class).load()
}

// stateAt reads one channel's probability and remaining
// additive-increase window at now.
func (ct *Controller) stateAt(st *classState, now sim.Time) (p float64, rem sim.Duration) {
	if open := sim.Time(st.reopens.Load()); open > now {
		rem = open - now
	}
	return st.load(), rem
}

// ForEachState visits every (dst, class) admission state in deterministic
// order with its current admit probability and the time remaining before
// the additive-increase window reopens at now (zero when the window is
// already open or no increase has happened yet).
func (ct *Controller) ForEachState(now sim.Time, f func(dst int, class qos.Class, pAdmit float64, windowRemaining sim.Duration)) {
	t := ct.channels()
	for i := range t {
		if st := t[i].Load(); st != nil {
			p, rem := ct.stateAt(st, now)
			f(i/int(ct.lowest), qos.Class(i%int(ct.lowest)), p, rem)
		}
	}
}

// MinAdmitProbability reports the minimum admit probability across every
// live channel, or 1 when none exists yet — the scalar the anomaly engine
// watches for admission collapse.
func (ct *Controller) MinAdmitProbability() float64 {
	minP := 1.0
	ct.ForEachState(0, func(_ int, _ qos.Class, p float64, _ sim.Duration) { minP = min(minP, p) })
	return minP
}

// MetricsSampler returns an obs.Sampler exposing this controller's
// per-(dst, class) admit probability and additive-increase window
// remainder; host identifies the controller's sending host in metric
// names. Metric keys are built once per (host, dst, class) and cached in
// a slice indexed like the channel table, so steady-state sampling
// performs no allocations; the returned sampler is not safe for
// concurrent use (each registry tick owns it).
func (ct *Controller) MetricsSampler(host int) obs.Sampler {
	type keyPair struct{ padmit, incwin string }
	var names []keyPair
	return func(now sim.Time, emit func(string, float64)) {
		ct.ForEachState(now, func(dst int, class qos.Class, p float64, rem sim.Duration) {
			slot := dst*int(ct.lowest) + int(class)
			if slot >= len(names) {
				names = append(names, make([]keyPair, slot+1-len(names))...)
			}
			kp := &names[slot]
			if kp.padmit == "" {
				suffix := fmt.Sprintf("h%d.d%d.q%d", host, dst, int(class))
				*kp = keyPair{padmit: "padmit." + suffix, incwin: "incwin_us." + suffix}
			}
			emit(kp.padmit, p)
			emit(kp.incwin, rem.Micros())
		})
	}
}

// Admit implements rpc.Admitter — Algorithm 1 lines 5-12, behind the
// quota branch of §5.2 when a quota client is attached. RPCs requesting
// the lowest class are always admitted (it has no SLO to protect). dst is
// a dense, non-negative destination id (a simulated host id, or a peer id
// from the facade's PeerID): it indexes the channel table. The fast path
// is one uniform draw, one lock-free state lookup, and one atomic
// probability load: no locks, no allocations, and no clock reading unless
// a quota bucket or the flight recorder needs the time (ReadsClock).
func (ct *Controller) Admit(dst int, requested qos.Class, sizeMTUs int64) rpc.Decision {
	var now sim.Time
	if ct.ReadsClock() {
		now = ct.clock.Now()
	}
	d, _ := ct.AdmitAt(now, dst, requested, sizeMTUs)
	return d
}

// ReadsClock reports whether Admit reads the clock: a quota client or a
// flight recorder is attached. A caller that wants the time of the
// decision anyway reads it once and calls AdmitAt instead.
func (ct *Controller) ReadsClock() bool {
	return ct.flight != nil || ct.quota.Load() != nil
}

// AdmitAt is Admit at now, a reading of the controller's clock taken by
// the caller: the quota bucket refills to it and the flight record
// carries it. late reports that the quota check waited for a lock held
// by another goroutine, so the decision finished a wait after now; with
// late false, everything after now was lock-free work.
func (ct *Controller) AdmitAt(now sim.Time, dst int, requested qos.Class, sizeMTUs int64) (d rpc.Decision, late bool) {
	slo := requested >= 0 && requested < ct.lowest
	q := ct.quota.Load()
	// Scavenger (and out-of-range) traffic never consumes quota. Quota is
	// charged in whole MTUs, the unit Algorithm 1 sizes RPCs in: a
	// 100-byte request costs one MTU of tokens.
	inQuota := QuotaNo
	if q != nil && slo {
		inQuota, late = q.client.check(now, requested, sizeMTUs*netsim.MaxPayload)
	}
	d = rpc.Decision{Class: ct.lowest, PAdmit: 1}
	switch {
	case inQuota == QuotaYes:
		q.inQuota.Add(1)
		d.Class = requested
	case inQuota == QuotaStale && q.policy == QuotaFailClosed:
		q.staleDropped.Add(1)
		d = rpc.Decision{Dropped: true}
	default:
		if inQuota == QuotaStale {
			q.stalePassed.Add(1)
		}
		// Draw before the class check so the clock's draw sequence is one
		// draw per RPC that reaches Algorithm 1, whatever its class.
		draw := ct.clock.Float64()
		if slo {
			d.PAdmit = ct.classState(dst, requested).load()
			switch {
			case draw <= d.PAdmit:
				d.Class = requested
			case ct.cfg.DropInsteadOfDowngrade:
				d.Class, d.Dropped = 0, true
			default:
				d.Downgraded = true
			}
		}
	}
	switch cs := ct.stripe(); {
	case d.Dropped:
		cs.dropped.Add(1)
	case d.Downgraded:
		cs.downgraded.Add(1)
	default:
		cs.admitted.Add(1)
	}
	if ct.flight != nil {
		ct.record(now, dst, requested, d, inQuota == QuotaYes, sizeMTUs)
	}
	return d, late
}

// RecordExpired counts and flight-records an expired-before-admit
// rejection: the request's remaining deadline budget could not cover the
// observed latency floor, so the serving layer rejected it without
// consulting p_admit — admitting it would only have burned capacity on
// work the client had already given up on.
func (ct *Controller) RecordExpired(dst int, requested qos.Class, sizeMTUs int64) {
	ct.stripe().expired.Add(1)
	if ct.flight != nil {
		ct.flight.Decision(ct.clock.Now(), ct.flightSrc, int32(dst), int8(requested), int8(requested),
			flight.VerdictExpired, ct.AdmitProbability(dst, requested), int32(sizeMTUs))
	}
}

// Observe implements rpc.Admitter — Algorithm 1 lines 13-20. rnl is the
// measured RPC network latency of a completed RPC of sizeMTUs that ran on
// class run toward dst, timestamped by the controller's clock. dst is a
// dense, non-negative destination id, as for Admit.
func (ct *Controller) Observe(dst int, run qos.Class, rnl sim.Duration, sizeMTUs int64) {
	ct.ObserveAt(ct.clock.Now(), dst, run, rnl, sizeMTUs)
}

// ObserveAt is Observe with an explicit timestamp, for callers that
// manage their own time base.
func (ct *Controller) ObserveAt(now sim.Time, dst int, run qos.Class, rnl sim.Duration, sizeMTUs int64) {
	if run >= ct.lowest || run < 0 {
		return // the scavenger class has no SLO and no admit probability
	}
	if sizeMTUs < 1 {
		sizeMTUs = 1
	}
	st := ct.classState(dst, run)
	cs := ct.stripe()
	var p float64
	verdict := flight.VerdictSLOMet
	// Algorithm 1 line 15: per-MTU normalised comparison.
	if rnl/sim.Duration(sizeMTUs) < ct.cfg.LatencyTargets[run] {
		cs.sloMet.Add(1)
		p = ct.increase(st, run, now)
	} else {
		cs.sloMisses.Add(1)
		verdict = flight.VerdictSLOMiss
		dec := ct.cfg.Beta
		if !ct.cfg.NoSizeScaledMD {
			dec *= float64(sizeMTUs)
		}
		p = st.add(-dec, ct.cfg.Floor, 1)
	}
	// The record carries the value this observation left, not a later
	// load that could read another goroutine's update.
	if ct.flight != nil {
		ct.flight.Complete(now, ct.flightSrc, int32(dst), int8(run), verdict, p, int32(sizeMTUs), rnl.Micros())
	}
}

// increase is Algorithm 1's additive increase for an SLO-met completion
// at now: α at most once per increment window. Inside the window it reads
// reopens and returns p without a lock or a write. Otherwise it takes the
// channel lock and checks the window again, so of the completions that
// found it open only the first claims it; the claim moves reopens one
// window past now, and the increase is a compare-and-swap that lock-free
// decreases cannot lose. It returns the value p holds after this
// completion.
func (ct *Controller) increase(st *classState, class qos.Class, now sim.Time) float64 {
	windowed := !ct.cfg.NoIncrementWindow
	if windowed && int64(now) <= st.reopens.Load() {
		return st.load()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if windowed && int64(now) <= st.reopens.Load() {
		return st.load()
	}
	st.reopens.Store(int64(now + ct.windows[class]))
	return st.add(ct.cfg.Alpha, ct.cfg.Floor, 1)
}

// quotaGate is the quota branch of Controller.Admit: the tenant's client,
// the stale-lease policy, and the branch's counters.
type quotaGate struct {
	client *QuotaClient
	policy QuotaFailPolicy

	inQuota, stalePassed, staleDropped atomic.Int64
}

// SetQuota puts a tenant quota in front of the draw: SLO-class RPCs
// within the client's leased rate are admitted on their requested class
// without consulting p_admit, RPCs beyond it go through Algorithm 1, and
// quota-plane outages past the lease TTL are handled per policy. The
// bucket refills on the controller's clock. In-quota traffic still feeds
// Observe: if the quota was over-provisioned relative to the SLO, the
// controller must learn it. A nil client removes the branch.
func (ct *Controller) SetQuota(client *QuotaClient, policy QuotaFailPolicy) {
	if client == nil {
		ct.quota.Store(nil)
		return
	}
	ct.quota.Store(&quotaGate{client: client, policy: policy})
}

// QuotaStats snapshots the quota branch's counters.
type QuotaStats struct {
	// Policy is the stale-lease failure policy in effect.
	Policy QuotaFailPolicy
	// InQuotaAdmits counts RPCs admitted on the quota bypass.
	InQuotaAdmits int64
	// StalePassed counts RPCs that fell through to the probabilistic path
	// on a stale lease under fail-open.
	StalePassed int64
	// StaleDropped counts RPCs dropped on a stale lease under fail-closed.
	StaleDropped int64
	// Lease is the underlying client's lease-health snapshot.
	Lease QuotaLeaseStats
}

// QuotaStats reports the quota branch's counters since SetQuota, or
// ok=false when no quota client is attached.
func (ct *Controller) QuotaStats() (QuotaStats, bool) {
	q := ct.quota.Load()
	if q == nil {
		return QuotaStats{}, false
	}
	return QuotaStats{
		Policy:        q.policy,
		InQuotaAdmits: q.inQuota.Load(),
		StalePassed:   q.stalePassed.Load(),
		StaleDropped:  q.staleDropped.Load(),
		Lease:         q.client.LeaseStats(),
	}, true
}
