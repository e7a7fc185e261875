// Package serve embeds the Aequitas admission controller in a live RPC
// server: an net/http middleware and a gRPC-style unary interceptor that
// classify each inbound request to a (peer, QoS class) admission channel,
// consult the controller, downgrade or reject unadmitted work, and feed
// measured handler latencies back as SLO observations — Algorithm 1
// running on the wall clock instead of the simulator.
//
// Both adapters are thin shells over one path. begin runs a request
// through five ordered pre-serve checks — deadline budget, brownout hard
// shed, the admission draw, quota fail-closed drop, brownout scavenger
// thinning and tightening — and leaves by a single exit that counts the
// outcome and calls Config.DecisionLog once. An HTTP handler reads the
// verdict from the response headers (HeaderClass, HeaderDowngraded), an
// RPC handler from its context (FromContext). A served request starts at
// the reading the controller's decision took, when it took one and
// nothing after it could wait (a DecisionLog callback, a contended quota
// lock); otherwise the exit reads the start. end reads the completion time,
// feeds the latency to the controller, and hands (class, elapsed, now)
// to the completion aggregator: per class, the deadline floor, and the
// latency histogram and the brownout window's counts in stripes, each
// under its own lock, picked by the P the request runs on. One
// completion per period wins an election on that same now; after
// releasing every lock a request or a /metrics scrape needs, the winner
// closes the brownout window, steps the ladder, ticks the anomaly engine
// and takes any incident dump.
//
// The package is intentionally dependency-free: the interceptor types
// mirror google.golang.org/grpc's unary server interceptor signature so a
// real gRPC server adapts with a one-line wrapper, without this module
// importing grpc.
//
// Admission.Handler is the repository's one live scrape surface: serving
// metrics (decision counters, per-class latency histograms, live admit
// probabilities) as Prometheus text on /metrics and JSON on /snapshot, in
// internal/obs's format and built per scrape, plus pprof and the flight
// recorder. A simulation's telemetry leaves as files instead.
package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/netsim"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
)

// Request is one classified unit of inbound work: the admission channel it
// belongs to and its size.
type Request struct {
	// Peer names the admission channel's destination — typically the
	// downstream service or route this request will occupy.
	Peer string
	// Class is the requested QoS level.
	Class aequitas.Class
	// SizeBytes is the request's payload size; it scales both the SLO
	// target and the multiplicative decrease. Non-positive sizes count as
	// one MTU.
	SizeBytes int64
}

// Config parameterises an Admission layer. The layer runs on the
// controller's clock — one time base for admission, latency measurement,
// brownout windows and flight ticks — so a controller built with
// aequitas.NewControllerWithClock(cfg, manual) makes every layer
// deterministic.
type Config struct {
	// Controller is the admission controller consulted per request.
	// Required.
	Controller *aequitas.AdmissionController
	// Classify maps an inbound HTTP request to its admission channel.
	// Nil uses ClassifyByHeader.
	Classify func(*http.Request) Request
	// RejectDowngraded replies 503 Service Unavailable (or ErrRejected
	// from the interceptor) instead of serving downgraded requests on the
	// scavenger class — for servers whose scavenger work is handled by a
	// separate pool.
	RejectDowngraded bool
	// Flight enables the flight recorder: the controller's decisions and
	// observations land in a lock-free ring, dumpable at /debug/flight
	// and dumped automatically when Flight.Engine detects an SLO burn or
	// admission collapse.
	Flight *FlightConfig
	// DecisionLog, when set, receives every admission verdict after it is
	// recorded — the hook for an application's own structured decision
	// log. It runs on the request path; keep it cheap and non-blocking.
	DecisionLog func(Verdict)
	// Deadline enables deadline-budget admission: requests whose
	// remaining budget (HeaderDeadline or context deadline) cannot cover
	// the class's observed latency floor are rejected before the draw.
	Deadline *DeadlineConfig
	// Brownout enables the overload brownout ladder: under sustained
	// completion-latency overload the layer sheds scavenger work,
	// tightens the effective admit probability, and finally hard-sheds,
	// stepping back down with hysteresis.
	Brownout *BrownoutConfig
	// RejectStatus is the HTTP status for rejected/shed/expired requests
	// (default 503 Service Unavailable).
	RejectStatus int
	// RetryAfter fixes the Retry-After hint on rejections. Zero derives
	// it per class from the controller's additive-increase window — the
	// earliest moment a retry could see a higher admit probability.
	RetryAfter time.Duration
}

// The headers the middleware reads and writes.
const (
	// HeaderClass carries the requested QoS class on requests and the
	// assigned class on responses.
	HeaderClass = "X-Aequitas-Class"
	// HeaderPeer optionally names the admission channel on requests.
	HeaderPeer = "X-Aequitas-Peer"
	// HeaderDowngraded marks responses served on the scavenger class
	// after a failed admission draw.
	HeaderDowngraded = "X-Aequitas-Downgraded"
	// HeaderShed marks responses rejected by the brownout ladder, with
	// the level name ("thin-scavenger", "tighten", "hard-shed").
	HeaderShed = "X-Aequitas-Shed"

	headerRetryAfter = "Retry-After"
)

// headerValue is h.Get(key) for a key already in canonical form, as every
// header constant of this package is: Get re-validates and
// re-canonicalises its key byte by byte on each call.
func headerValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// ClassifyByHeader is the default classifier: the channel peer comes from
// X-Aequitas-Peer (falling back to the URL path), the requested class from
// X-Aequitas-Class (default the highest), and the size from the request
// body length.
func ClassifyByHeader(r *http.Request) Request {
	peer := headerValue(r.Header, HeaderPeer)
	if peer == "" {
		peer = r.URL.Path
	}
	class, ok := parseClass(headerValue(r.Header, HeaderClass))
	if !ok {
		class = aequitas.High
	}
	return Request{Peer: peer, Class: class, SizeBytes: r.ContentLength}
}

// ParseClass reads a QoS class from its paper name (QoSh/QoSm/QoSl),
// a plain level name (high/medium/low), or a numeric level, bare or
// after "QoS" as Class.String writes levels from 3 up. Names match
// whatever the case of their ASCII letters, and nothing outside ASCII
// folds onto them. It runs per request and does not allocate on success.
func ParseClass(s string) (aequitas.Class, error) {
	c, ok := parseClass(s)
	if !ok {
		return 0, fmt.Errorf("serve: unknown QoS class %q", s)
	}
	return c, nil
}

// parseClass is ParseClass with a flag for its error, so that the
// classifier, which falls back to a default, allocates on no input.
func parseClass(s string) (aequitas.Class, bool) {
	t := strings.TrimSpace(s)
	var lower [len("medium")]byte
	k := copy(lower[:], t)
	for i := range lower[:k] {
		if 'A' <= lower[i] && lower[i] <= 'Z' {
			lower[i] += 'a' - 'A'
		}
	}
	if k == len(t) {
		switch string(lower[:k]) {
		case "qosh", "high", "h":
			return aequitas.High, true
		case "qosm", "medium", "m":
			return aequitas.Medium, true
		case "qosl", "low", "l":
			return aequitas.Low, true
		}
	}
	// A level number, bare or after "qos": what strconv.Atoi accepts (an
	// optional sign, then decimal digits, at most math.MaxInt64) if it is
	// not negative. It is read here because Atoi's errors allocate.
	if k > len("qos") && string(lower[:3]) == "qos" {
		t = t[3:]
	}
	neg := t != "" && t[0] == '-'
	if t != "" && (neg || t[0] == '+') {
		t = t[1:]
	}
	if t == "" {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(t); i++ {
		d := uint64(t[i] - '0')
		if d > 9 || n > (math.MaxInt64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg && n != 0 {
		return 0, false
	}
	return aequitas.Class(n), true
}

// Admission is the serving-side admission layer: construct once per
// process, then wrap handlers with Middleware or RPC endpoints with
// UnaryInterceptor. All methods are safe for concurrent use.
type Admission struct {
	// ctl names peers; core, the Algorithm 1 controller behind it,
	// decides.
	ctl    *aequitas.AdmissionController
	core   *core.Controller
	cls    func(*http.Request) Request
	reject bool
	dlog   func(Verdict)
	clock  core.Clock

	// outcomes counts requests by how begin disposed of them, striped by
	// P; outcome sums the stripes. The pad keeps the fields above, which
	// every request reads, off the first stripe's cache line.
	_        [64]byte
	outcomes [stripes]outcomeStripe
	// done is the completion aggregator end feeds.
	done completions
	// dl, bo and fl are nil when the feature is off.
	dl *DeadlineConfig
	bo *ladder
	fl *flightState

	rejStatus int
	// The response-header values, built once and shared by every
	// response: each has len == cap == 1, so a handler that appends to
	// one gets a copy, and nothing in the layer writes to them.
	// classValue and retryValue are indexed by class, shedValue by
	// brownout level.
	classValue, retryValue [][]string
	shedValue              [BrownoutHardShed + 1][]string
	markValue              []string // "1": HeaderDowngraded, HeaderExpired

	started time.Time
}

// New builds an Admission layer over cfg.Controller.
func New(cfg Config) (*Admission, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("serve: Config.Controller is required")
	}
	a := &Admission{
		ctl:       cfg.Controller,
		core:      cfg.Controller.Core(),
		cls:       cfg.Classify,
		reject:    cfg.RejectDowngraded,
		dlog:      cfg.DecisionLog,
		clock:     cfg.Controller.Core().Clock(),
		rejStatus: cfg.RejectStatus,
		markValue: []string{"1"},
		started:   time.Now(),
	}
	for c := aequitas.Class(0); c <= a.core.Scavenger(); c++ {
		a.classValue = append(a.classValue, []string{c.String()})
		a.retryValue = append(a.retryValue, []string{a.retryAfter(cfg.RetryAfter, c)})
	}
	for l := range a.shedValue {
		a.shedValue[l] = []string{brownoutLevelName(int32(l))}
	}
	if a.cls == nil {
		a.cls = ClassifyByHeader
	}
	if a.rejStatus == 0 {
		a.rejStatus = http.StatusServiceUnavailable
	}
	if cfg.Deadline != nil {
		dl := *cfg.Deadline
		a.dl = &dl
	}
	if cfg.Flight != nil {
		a.fl = newFlightState(*cfg.Flight)
		a.core.SetFlight(a.fl.rings, 0)
		if a.fl.eng != nil {
			a.done.tickEvery = sim.FromStd(a.fl.cfg.TickEvery)
		}
	}
	if cfg.Brownout != nil {
		bc := cfg.Brownout.withDefaults()
		a.bo = &ladder{stepUpAfter: bc.StepUpAfter, stepDownAfter: bc.StepDownAfter}
		a.done.slowOver = bc.LatencyThreshold
		a.done.window = sim.FromStd(bc.Window)
	}
	a.done.due.Store(int64(a.done.nextDue()))
	return a, nil
}

// BrownoutLevel reports the current brownout degradation level (0 when
// the ladder is disabled or healthy).
func (a *Admission) BrownoutLevel() int32 { return a.bo.Level() }

// Controller returns the wrapped admission controller.
func (a *Admission) Controller() *aequitas.AdmissionController { return a.ctl }

// ctxKey is the context key the admission verdict answers to.
type ctxKey struct{}

// verdictCtx is the one context node an intercepted RPC costs: the
// parent context with the verdict inline. Every key but ctxKey, and
// Deadline, Done and Err, are the parent's, so a cancellation of the
// parent reaches contexts derived from this one the way it would through
// a valueCtx.
type verdictCtx struct {
	context.Context
	v Verdict
}

func (c *verdictCtx) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return &c.v
	}
	return c.Context.Value(key)
}

// Verdict is the admission outcome of one request, handed to DecisionLog
// for every request, including ones rejected before the draw, and
// attached to the context of an RPC the interceptor serves. An HTTP
// handler reads its Class and Downgraded from the response headers.
type Verdict struct {
	Request Request
	// Class is the QoS level the request actually runs on.
	Class aequitas.Class
	// Downgraded reports a failed admission draw (the request runs on
	// the scavenger class, or was rejected under RejectDowngraded).
	Downgraded bool
	// Expired reports a rejection before the admission draw: the
	// request's remaining deadline budget could not cover the class's
	// observed latency floor.
	Expired bool
	// ShedLevel, when non-zero, is the brownout level that shed this
	// request.
	ShedLevel int32
	// Dropped reports a quota fail-closed drop during a quota-plane
	// outage.
	Dropped bool
}

// FromContext returns the admission verdict for the current RPC, if it
// passed through the interceptor; an HTTP handler reads its headers.
func FromContext(ctx context.Context) (Verdict, bool) {
	if v, ok := ctx.Value(ctxKey{}).(*Verdict); ok {
		return *v, true
	}
	return Verdict{}, false
}

// cause is how begin disposed of a request: the two served outcomes,
// then the four reasons a request does not reach its handler. It indexes
// Admission.outcomes and refusals.
type cause uint8

const (
	// causeAdmitted: passed the draw, served on its requested class.
	causeAdmitted cause = iota
	// causeDowngraded: failed the draw, served on the scavenger class.
	causeDowngraded
	// causeRejected: failed the draw under RejectDowngraded.
	causeRejected
	// causeExpired: deadline budget below the latency floor.
	causeExpired
	// causeShed: rejected by the brownout ladder.
	causeShed
	// causeDropped: quota fail-closed drop (stale lease).
	causeDropped
	causeCount
)

// outcomeStripe is one stripe of the outcome counters: 48 bytes, padded
// to 128 so no two stripes share a cache line.
type outcomeStripe struct {
	n [causeCount]atomic.Int64
	_ [128 - 8*causeCount]byte
}

// outcome reports how many requests begin has disposed of by c.
func (a *Admission) outcome(c cause) (n int64) {
	for i := range a.outcomes {
		n += a.outcomes[i].n[c].Load()
	}
	return n
}

// refusals says how each non-serving cause is reported: the HTTP body, the response header that marks it, and the interceptor's error.
// The served causes' entries are zero.
var refusals = [causeCount]struct {
	body, header string
	err          error
}{
	causeRejected: {"rejected by admission control", "", ErrRejected},
	causeExpired:  {"deadline budget exhausted before admission", HeaderExpired, ErrExpired},
	causeShed:     {"shed by overload brownout", HeaderShed, ErrShed},
	causeDropped:  {"dropped by quota policy (stale lease, fail-closed)", "", ErrRejected},
}

// record is one request's passage through the layer: begin fills it, the
// adapter reports it, end completes it.
type record struct {
	v     Verdict
	cause cause
	// dst and mtus are the request's peer and size as the controller
	// counts them, interned and converted once; start is the clock
	// reading the admission decision was made at, or one taken after the
	// decision and DecisionLog when the decision read none or something
	// after its reading could wait (see begin). Only served requests
	// have them.
	dst   int
	mtus  int64
	start sim.Time
}

// begin runs one classified request through the pre-serve checks, in
// order: deadline budget, brownout hard shed, the admission draw, quota
// fail-closed drop, brownout scavenger thinning and tightening. Every
// request leaves by the one exit at the bottom.
func (a *Admission) begin(req Request, budget time.Duration, haveBudget bool) record {
	// A class the controller does not have is its scavenger: clamped
	// here, where the request enters, so the verdict, the Retry-After
	// hint, the metric slot and the flight record all see one class.
	scav := a.core.Scavenger()
	if req.Class < 0 || req.Class > scav {
		req.Class = scav
	}
	rec := record{v: Verdict{Request: req, Class: req.Class}}
	v := &rec.v
	level := a.bo.Level()
	started := false // rec.start holds the decision's clock reading
	switch {
	case haveBudget && a.expired(req.Class, budget):
		v.Expired = true
		a.core.RecordExpired(a.ctl.PeerID(req.Peer), req.Class, netsim.MTUsFor(req.SizeBytes))
		rec.cause = causeExpired
	case level >= BrownoutHardShed && a.clock.Float64() >= hardShedKeep:
		// Shed without consulting the controller at all.
		rec.cause = causeShed
	default:
		rec.dst, rec.mtus = a.ctl.PeerID(req.Peer), netsim.MTUsFor(req.SizeBytes)
		// One clock reading is the decision's time and, if the request
		// is served, its start. It is taken before the draw only when
		// the controller would read the clock anyway, so a request
		// refused after the draw reads it no more than the draw does.
		// It stands as the start only if nothing that can wait ran
		// after it: no DecisionLog callback, and a quota check that
		// found its locks free. What runs between is then the draw, the
		// flight record and the counters, lock-free and tens of
		// nanoseconds; otherwise the start is read after the callback,
		// so neither a slow callback nor a contended lock is counted as
		// handler latency.
		var d rpc.Decision
		if a.core.ReadsClock() {
			now := a.clock.Now()
			var late bool
			d, late = a.core.AdmitAt(now, rec.dst, req.Class, rec.mtus)
			if started = !late && a.dlog == nil; started {
				rec.start = now
			}
		} else {
			d = a.core.Admit(rec.dst, req.Class, rec.mtus)
		}
		v.Class, v.Downgraded, v.Dropped = d.Class, d.Downgraded, d.Dropped
		switch {
		case d.Dropped:
			rec.cause = causeDropped
		case v.Class >= scav && level >= BrownoutThinScavenger,
			// Tightening: an admitted SLO-class request survives one more
			// draw, for an effective p_admit x tightenFactor.
			v.Class < scav && !v.Downgraded && level >= BrownoutTighten && a.clock.Float64() >= tightenFactor:
			rec.cause = causeShed
		case v.Downgraded && a.reject:
			rec.cause = causeRejected
		case v.Downgraded:
			rec.cause = causeDowngraded
		}
	}
	if rec.cause == causeShed {
		v.ShedLevel = level
	}
	a.outcomes[stripe()].n[rec.cause].Add(1)
	if a.dlog != nil {
		a.dlog(rec.v)
	}
	if rec.cause <= causeDowngraded && !started {
		rec.start = a.clock.Now()
	}
	return rec
}

// end completes a served request: the measured latency goes back to the
// controller on the class the request ran on and into the completion
// aggregator, and the one completion per period that wins the
// aggregator's election runs the periodic work.
func (a *Admission) end(rec *record) {
	now := a.clock.Now()
	elapsed := (now - rec.start).Std()
	a.core.ObserveAt(now, rec.dst, rec.v.Class, sim.FromStd(elapsed), rec.mtus)
	if a.done.complete(rec.v.Class, elapsed, now) {
		a.tick(now)
	}
}

// retryAfter is the Retry-After hint for a rejection on class: the
// configured fixed value, or the class's additive-increase window — the
// earliest interval after which the admit probability can have risen, so
// retrying sooner cannot help. Both are fixed when the layer is built.
func (a *Admission) retryAfter(fixed time.Duration, class aequitas.Class) string {
	d := fixed
	if d <= 0 {
		d = a.core.IncrementWindow(class).Std()
	}
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// Middleware wraps next with admission control: classify, begin (setting
// the response headers, where the handler reads its verdict), serve on
// the decided class, end. Requests stopped before the handler (expired,
// shed, rejected, quota-dropped) receive RejectStatus with a Retry-After
// hint and are not observed — they never ran.
func (a *Admission) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := a.cls(r)
		budget, haveBudget := a.budgetFromRequest(r.Header, r.Context())
		rec := a.begin(req, budget, haveBudget)
		// The header keys are canonical and the values shared (see
		// Admission.classValue): assigned, not Set, nothing allocates.
		h := w.Header()
		if rec.cause <= causeRejected { // the draw assigned a class
			h[HeaderClass] = a.classValue[rec.v.Class]
			if rec.v.Downgraded {
				h[HeaderDowngraded] = a.markValue
			} else if _, marked := h[HeaderDowngraded]; marked {
				delete(h, HeaderDowngraded) // an outer layer's, not this class's
			}
		}
		if ref := &refusals[rec.cause]; ref.err != nil {
			if ref.header != "" {
				mark := a.markValue
				if rec.cause == causeShed {
					mark = a.shedValue[rec.v.ShedLevel]
				}
				h[ref.header] = mark
			}
			h[headerRetryAfter] = a.retryValue[rec.v.Request.Class]
			http.Error(w, ref.body, a.rejStatus)
			return
		}
		next.ServeHTTP(w, r)
		a.end(&rec)
	})
}
