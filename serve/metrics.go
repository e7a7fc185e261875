package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"aequitas"
	"aequitas/internal/obs"
	"aequitas/internal/obs/flight"
	"aequitas/internal/proc"
	"aequitas/internal/sim"
	"aequitas/internal/stats"
)

// maxClasses bounds the per-class metric arrays; classes beyond it fold
// into the last slot (the paper uses 2-4 levels).
const maxClasses = 8

func classSlot(c aequitas.Class) int { return min(max(int(c), 0), maxClasses-1) }

// stripes is the number of stripes the layer's per-request counters and
// each class's completion window are spread over. A request writes the
// stripe of the P its goroutine runs on (proc.ID), so requests on
// different cores write different cache lines; readers sum or merge the
// stripes. A stripe per peer would not do: every core serves every peer,
// so each stripe's line would still move between them. A power of two
// so the stripe is a mask.
const stripes = 4

// stripe is the calling goroutine's stripe.
func stripe() int { return proc.ID() & (stripes - 1) }

// completions is the completion aggregator: everything the layer learns
// from a finished request, kept per class in stripes, each under its own
// lock, plus the gate that elects one completion per period to run the
// periodic work (closing the brownout window, ticking the anomaly
// engine).
type completions struct {
	// slowOver is the brownout LatencyThreshold: completions above it
	// count as slow. Zero counts none.
	slowOver time.Duration
	// window and tickEvery are the periods of the brownout evaluation
	// and of the anomaly-engine tick; zero when that consumer is off.
	window, tickEvery sim.Duration

	// due is the clock reading at which the next periodic work falls
	// due, or electing while a winner is running it. The CAS from a due
	// time to electing is the election; the winner's Store of the next
	// due time publishes lastEval, lastTick and the ladder's streaks to
	// the next winner.
	due                atomic.Int64
	lastEval, lastTick sim.Time

	// The pad keeps the fields above, which every completion reads, off
	// the cache line of the first class's floor, which every completion
	// of that class writes.
	_     [64]byte
	class [maxClasses]classWindow
}

// electing parks due while a winner runs, and is where due stays when
// nothing periodic is configured: no clock reading reaches it.
const electing = math.MaxInt64

// classWindow is one class's share of the aggregator: the deadline floor,
// one value per class, and the striped window.
type classWindow struct {
	// floorNS is the deadline floor, a float64's bits: the cheapest a
	// request of this class has recently been observed to complete.
	// Samples below it snap it down immediately; samples above drift it
	// up slowly (gain 1/64) so a stale low from a quiet period ages out.
	// Written by compare-and-swap, read by begin.
	floorNS atomic.Uint64
	_       [120]byte // keeps the floor off the stripes' cache lines
	stripe  [stripes]windowStripe
}

// windowStripe is one stripe of a class's window: 32 bytes, padded to 128
// so no two stripes share a cache line. The histogram is allocated on the
// stripe's first completion, 26 KiB each.
type windowStripe struct {
	mu   sync.Mutex
	hist *stats.Hist // completion latency in µs
	// n and slow count this brownout window's completions.
	n, slow int64
	_       [96]byte
}

// nextDue is the earlier of the two consumers' next periods; the first
// falls one period after the clock's zero.
func (c *completions) nextDue() sim.Time {
	next := sim.Time(electing)
	if c.window > 0 {
		next = c.lastEval + sim.Time(c.window)
	}
	if c.tickEvery > 0 {
		next = min(next, c.lastTick+sim.Time(c.tickEvery))
	}
	return next
}

// complete records one completion on class, in the caller's stripe, and
// reports whether the caller won the election and must run
// Admission.tick.
func (c *completions) complete(class aequitas.Class, elapsed time.Duration, now sim.Time) bool {
	w := &c.class[classSlot(class)]
	s := &w.stripe[stripe()]
	s.mu.Lock()
	if s.hist == nil {
		s.hist = stats.NewHist()
	}
	s.hist.Record(float64(elapsed) / float64(time.Microsecond))
	s.n++
	if c.slowOver > 0 && elapsed > c.slowOver {
		s.slow++
	}
	s.mu.Unlock()
	if elapsed > 0 {
		w.learnFloor(float64(elapsed))
	}
	due := c.due.Load()
	return int64(now) >= due && c.due.CompareAndSwap(due, electing)
}

// learnFloor folds one completion's latency s (ns) into the floor,
// retrying if another completion wrote it in between. A sample that
// leaves the floor where it is writes nothing.
func (w *classWindow) learnFloor(s float64) {
	for {
		old := w.floorNS.Load()
		next := s
		if cur := math.Float64frombits(old); cur != 0 && s >= cur {
			next = cur + (s-cur)/64
		}
		if bits := math.Float64bits(next); bits == old || w.floorNS.CompareAndSwap(old, bits) {
			return
		}
	}
}

// floor reports slot's deadline floor, or 0 when unlearned.
func (c *completions) floor(slot int) time.Duration {
	return time.Duration(math.Float64frombits(c.class[slot].floorNS.Load()))
}

// merge adds slot's latency histogram, every stripe of it, to h, and
// reports whether any completion has been recorded on slot.
func (c *completions) merge(slot int, h *stats.Hist) (seen bool) {
	for i := range c.class[slot].stripe {
		s := &c.class[slot].stripe[i]
		s.mu.Lock()
		if s.hist != nil {
			h.Merge(s.hist)
			seen = true
		}
		s.mu.Unlock()
	}
	return seen
}

// closeWindow returns the brownout window's counts and starts the next
// window.
func (c *completions) closeWindow() (total, slow int64) {
	for i := range c.class {
		for j := range c.class[i].stripe {
			s := &c.class[i].stripe[j]
			s.mu.Lock()
			total, slow = total+s.n, slow+s.slow
			s.n, s.slow = 0, 0
			s.mu.Unlock()
		}
	}
	return total, slow
}

// tick is the periodic work, run by the completion that won the
// election at clock reading now, holding no lock: whichever of the
// brownout window and the engine tick has fallen due. Winners are
// serialised by the election, so the ladder needs no mutex, the engine
// sees increasing timestamps, and an incident dump can never be
// overwritten by an older one.
func (a *Admission) tick(now sim.Time) {
	c := &a.done
	if c.window > 0 && now-c.lastEval >= sim.Time(c.window) {
		c.lastEval = now
		if from, to := a.bo.evaluate(c.closeWindow()); to > from && a.fl != nil {
			// Level-ups are incidents: dump the ring so the decisions
			// that preceded the escalation are preserved.
			a.fl.fire(a.ctl, flight.Trigger{
				Kind: flight.TriggerBrownout,
				At:   now,
				Detail: fmt.Sprintf("brownout %s -> %s (level %d -> %d)",
					brownoutLevelName(from), brownoutLevelName(to), from, to),
			})
		}
	}
	if c.tickEvery > 0 && now-c.lastTick >= sim.Time(c.tickEvery) {
		c.lastTick = now
		cs := a.core.Stats()
		if tr, ok := a.fl.eng.Tick(now, cs.SLOMet, cs.SLOMisses, a.core.MinAdmitProbability()); ok {
			a.fl.fire(a.ctl, tr)
		}
	}
	c.due.Store(int64(c.nextDue()))
}

// Snapshot freezes the serving state into a freshly built observability
// document, the view /metrics and /snapshot serve: middleware counters,
// the controller's cumulative Algorithm 1 counters, quota and brownout
// health, live per-(peer, class) admit probabilities as gauges, and
// per-class latency histograms.
func (a *Admission) Snapshot() *obs.Snapshot {
	s := &obs.Snapshot{
		Schema:   obs.SnapshotSchema,
		Label:    "serve",
		SimTimeS: time.Since(a.started).Seconds(),
	}
	var completed int64
	h := stats.NewHist()
	for slot := range a.done.class {
		h.Reset()
		if a.done.merge(slot, h) {
			completed += h.N()
			s.Hists = append(s.Hists,
				obs.SnapHist("serve_latency_us", "class", aequitas.Class(slot).String(), h))
		}
	}
	count := func(c cause) float64 { return float64(a.outcome(c)) }
	cs := a.ctl.Stats()
	s.Counters = []obs.NamedValue{
		{Name: "serve_admitted", Value: count(causeAdmitted)},
		{Name: "serve_downgraded", Value: count(causeDowngraded)},
		{Name: "serve_rejected", Value: count(causeRejected)},
		{Name: "serve_completed", Value: float64(completed)},
		{Name: "serve_expired", Value: count(causeExpired)},
		{Name: "serve_shed", Value: count(causeShed)},
		{Name: "serve_quota_dropped", Value: count(causeDropped)},
		{Name: "ctl_admitted", Value: float64(cs.Admitted)},
		{Name: "ctl_downgraded", Value: float64(cs.Downgraded)},
		{Name: "ctl_dropped", Value: float64(cs.Dropped)},
		{Name: "ctl_expired", Value: float64(cs.Expired)},
		{Name: "ctl_slo_misses", Value: float64(cs.SLOMisses)},
		{Name: "ctl_slo_met", Value: float64(cs.SLOMet)},
	}
	if qs, ok := a.ctl.QuotaStats(); ok {
		s.Counters = append(s.Counters,
			obs.NamedValue{Name: "quota_in_quota_admits", Value: float64(qs.InQuotaAdmits)},
			obs.NamedValue{Name: "quota_stale_passed", Value: float64(qs.StalePassed)},
			obs.NamedValue{Name: "quota_stale_dropped", Value: float64(qs.StaleDropped)},
			obs.NamedValue{Name: "quota_lease_refreshes", Value: float64(qs.Lease.Refreshes)},
			obs.NamedValue{Name: "quota_stale_checks", Value: float64(qs.Lease.StaleChecks)},
		)
	}
	if a.bo != nil {
		s.Gauges = append(s.Gauges,
			obs.NamedValue{Name: "brownout_level", Value: float64(a.bo.Level())},
			obs.NamedValue{Name: "brownout_transitions", Value: float64(a.bo.transitions.Load())},
		)
	}
	if a.dl != nil {
		for slot := 0; slot < maxClasses; slot++ {
			if fl := a.done.floor(slot); fl > 0 {
				s.Gauges = append(s.Gauges, obs.NamedValue{
					Name:  fmt.Sprintf("latency_floor_us.q%d", slot),
					Value: float64(fl) / float64(time.Microsecond),
				})
			}
		}
	}
	a.ctl.ForEachProbability(func(peer string, class aequitas.Class, p float64) {
		s.Gauges = append(s.Gauges, obs.NamedValue{
			Name:  fmt.Sprintf("padmit.%s.q%d", peer, int(class)),
			Value: p,
		})
	})
	return s
}

// Handler serves this admission layer's observability endpoints:
// Prometheus text on /metrics and the JSON document on /snapshot, both
// built fresh per scrape so the serving path never pays for them; pprof
// under /debug/pprof/; and the flight recorder on /debug/flight (trigger
// status as JSON; the ring as one NDJSON dump with ?format=ndjson).
func (a *Admission) Handler() http.Handler {
	mux := http.NewServeMux()
	// A render can only fail writing to the scraper, whose connection is
	// then gone: there is nobody left to tell, so the errors are dropped.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteProm(w, a.Snapshot())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(a.Snapshot())
	})
	mux.HandleFunc("/debug/flight", a.serveFlight)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
