// Package chaos implements wall-clock fault injection for the live
// serving path: a time-ordered Plan of latency spikes, error bursts and
// quota-plane outage windows that an Injector applies to a running
// server. It mirrors internal/faults — the plan is data, events
// are offsets from the start — but runs on wall time (or any offset
// source: deterministic tests drive Advance directly on a manual clock).
package chaos

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the chaos event types.
type Kind uint8

const (
	// Slow adds Amount of extra latency to every wrapped request; Amount
	// zero clears it.
	Slow Kind = iota
	// Errors fails wrapped requests with probability Rate (500 before the
	// handler runs); Rate zero clears it.
	Errors
	// QuotaDown makes the attached quota plane unreachable: lease
	// refreshes fail until QuotaUp.
	QuotaDown
	// QuotaUp restores the quota plane.
	QuotaUp
	kindCount
)

func (k Kind) String() string {
	switch k {
	case Slow:
		return "slow"
	case Errors:
		return "errs"
	case QuotaDown:
		return "quotadown"
	case QuotaUp:
		return "quotaup"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one scheduled chaos action.
type Event struct {
	// At is the event's offset from the start of the run.
	At   time.Duration
	Kind Kind
	// Amount is the extra latency (Slow).
	Amount time.Duration
	// Rate is the Errors failure probability in [0, 1].
	Rate float64
}

// Plan is a deterministic chaos schedule. The zero value (and nil) is
// the empty plan.
type Plan struct {
	// Seed seeds the per-request error draw (default 1).
	Seed int64
	// Events is the schedule; it need not be pre-sorted. Events at the
	// same instant apply in slice order.
	Events []Event
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate reports structural errors: negative times, unknown kinds,
// rates outside [0, 1] (NaN included), negative slow amounts.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("chaos: event %d: negative time %v", i, e.At)
		}
		if e.Kind >= kindCount {
			return fmt.Errorf("chaos: event %d: unknown kind %d", i, e.Kind)
		}
		if e.Kind == Errors && !(e.Rate >= 0 && e.Rate <= 1) {
			return fmt.Errorf("chaos: event %d: error rate %g outside [0, 1]", i, e.Rate)
		}
		if e.Kind == Slow && e.Amount < 0 {
			return fmt.Errorf("chaos: event %d: negative slow amount %v", i, e.Amount)
		}
	}
	return nil
}

// sorted returns the events in schedule order (stable by time) without
// mutating the plan.
func (p *Plan) sorted() []Event {
	evs := make([]Event, len(p.Events))
	copy(evs, p.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Window is one interval during which a fault was active: a non-zero
// Slow/Errors setting until the event clearing it, or QuotaDown
// until QuotaUp. Faults never cleared within the plan extend to the
// maximum duration.
type Window struct {
	Start, End time.Duration
	Kind       Kind
}

// Windows pairs the plan's fault/clear events into active intervals, in
// start-time order.
func (p *Plan) Windows() []Window {
	if p.Empty() {
		return nil
	}
	var out []Window
	open := map[Kind]int{}
	const never = time.Duration(math.MaxInt64)
	for _, e := range p.sorted() {
		k := e.Kind
		active := false
		switch e.Kind {
		case Slow:
			active = e.Amount != 0
		case Errors:
			active = e.Rate > 0
		case QuotaDown:
			k, active = QuotaDown, true
		case QuotaUp:
			k = QuotaDown
		}
		if i, ok := open[k]; ok {
			if active {
				continue // already active; first setting wins the window
			}
			out[i].End = e.At
			delete(open, k)
			continue
		}
		if active {
			open[k] = len(out)
			out = append(out, Window{Start: e.At, End: never, Kind: k})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// ParsePlan reads a plan: one event per line in the form
//
//	<offset> <event> [arg]
//
// where offset is a Go duration ("30s"), event is one of slow (arg: a
// duration of extra latency, "0" clears), errs (arg: a failure rate in
// [0, 1], 0 clears), quotadown, quotaup. '#' starts a comment; blank lines are ignored.
func ParsePlan(r io.Reader) (*Plan, error) {
	p := &Plan{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("chaos: line %d: want \"<offset> <event> [arg]\"", lineNo)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("chaos: line %d: bad offset %q: %v", lineNo, fields[0], err)
		}
		e := Event{At: at}
		arg := ""
		if len(fields) == 3 {
			arg = fields[2]
		}
		switch strings.ToLower(fields[1]) {
		case "slow":
			e.Kind = Slow
			if arg != "" { // a bare "slow" clears
				if e.Amount, err = time.ParseDuration(arg); err != nil {
					return nil, fmt.Errorf("chaos: line %d: bad slow amount %q: %v", lineNo, arg, err)
				}
			}
		case "errs", "errors":
			e.Kind = Errors
			if arg != "" {
				if e.Rate, err = strconv.ParseFloat(arg, 64); err != nil {
					return nil, fmt.Errorf("chaos: line %d: bad error rate %q: %v", lineNo, arg, err)
				}
			}
		case "quotadown":
			e.Kind = QuotaDown
		case "quotaup":
			e.Kind = QuotaUp
		default:
			return nil, fmt.Errorf("chaos: line %d: unknown event %q", lineNo, fields[1])
		}
		p.Events = append(p.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, p.Validate()
}

// PresetNames lists the built-in plan presets, for CLI help.
func PresetNames() []string { return []string{"latency", "errors", "outage", "drill"} }

// Preset builds a named canonical plan scaled to a run of the given
// duration: faults start at 25% of the run and clear at 60%, so every
// preset shows onset, steady fault, and recovery.
func Preset(name string, duration time.Duration) (*Plan, error) {
	if duration <= 0 {
		duration = time.Minute
	}
	on := duration / 4
	off := duration * 6 / 10
	switch strings.ToLower(name) {
	case "latency":
		return &Plan{Events: []Event{
			{At: on, Kind: Slow, Amount: 50 * time.Millisecond},
			{At: off, Kind: Slow},
		}}, nil
	case "errors":
		return &Plan{Events: []Event{
			{At: on, Kind: Errors, Rate: 0.3},
			{At: off, Kind: Errors},
		}}, nil
	case "outage":
		return &Plan{Events: []Event{
			{At: on, Kind: QuotaDown},
			{At: off, Kind: QuotaUp},
		}}, nil
	case "drill":
		// The full overload drill: latency spike plus error burst plus a
		// quota-plane outage, overlapping but not coterminous.
		return &Plan{Events: []Event{
			{At: on, Kind: Slow, Amount: 50 * time.Millisecond},
			{At: on, Kind: QuotaDown},
			{At: duration * 2 / 5, Kind: Errors, Rate: 0.2},
			{At: duration / 2, Kind: Errors},
			{At: off, Kind: Slow},
			{At: off, Kind: QuotaUp},
		}}, nil
	}
	return nil, fmt.Errorf("chaos: unknown preset %q (have %s)", name, strings.Join(PresetNames(), ", "))
}

// QuotaPlane is the quota-server control surface the injector drives
// during outage windows (core.QuotaServer implements it).
type QuotaPlane interface {
	SetAvailable(up bool)
}

// Injector applies a plan to a live server. The active fault settings
// live in atomics read on the request path; Advance applies all events
// at or before the given offset, either from Run's wall-clock pump or
// directly from a test driving a manual clock.
type Injector struct {
	plan  []Event
	quota QuotaPlane

	mu   sync.Mutex
	next int
	rng  *rand.Rand

	extraNS atomic.Int64
	errBits atomic.Uint64
	applied atomic.Int64
}

// NewInjector builds an injector for plan (which may be nil or empty —
// the injector is then inert). quota may be nil when the plan has no
// quota events.
func NewInjector(plan *Plan, quota QuotaPlane) *Injector {
	inj := &Injector{quota: quota}
	seed := int64(1)
	if plan != nil {
		inj.plan = plan.sorted()
		if plan.Seed != 0 {
			seed = plan.Seed
		}
	}
	inj.rng = rand.New(rand.NewSource(seed))
	return inj
}

// Advance applies every event scheduled at or before now (an offset from
// the start of the run). Offsets must not move backwards.
func (inj *Injector) Advance(now time.Duration) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for inj.next < len(inj.plan) && inj.plan[inj.next].At <= now {
		e := inj.plan[inj.next]
		inj.next++
		inj.applied.Add(1)
		switch e.Kind {
		case Slow:
			inj.extraNS.Store(e.Amount.Nanoseconds())
		case Errors:
			inj.errBits.Store(math.Float64bits(e.Rate))
		case QuotaDown:
			if inj.quota != nil {
				inj.quota.SetAvailable(false)
			}
		case QuotaUp:
			if inj.quota != nil {
				inj.quota.SetAvailable(true)
			}
		}
	}
}

// Applied reports how many events have been applied so far.
func (inj *Injector) Applied() int64 { return inj.applied.Load() }

// Done reports whether every scheduled event has been applied.
func (inj *Injector) Done() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.next >= len(inj.plan)
}

// ExtraLatency reports the currently injected per-request latency.
func (inj *Injector) ExtraLatency() time.Duration {
	return time.Duration(inj.extraNS.Load())
}

// ErrorRate reports the currently injected failure probability.
func (inj *Injector) ErrorRate() float64 {
	return math.Float64frombits(inj.errBits.Load())
}

// Run pumps the plan on the wall clock: every `every`, events that have
// come due are applied. It blocks until the context is cancelled or the
// plan is exhausted; run it in a goroutine.
func (inj *Injector) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	start := time.Now()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			inj.Advance(time.Since(start))
			if inj.Done() {
				return
			}
		}
	}
}

// Wrap injects the active faults into an HTTP handler: the extra latency
// is slept before the handler runs and error-burst failures reply 500
// without running it. Wrap goes OUTSIDE the admission middleware when
// the faults model slow upstream dependencies (the latency lands in the
// observed SLO), which is how the chaos harness exercises admission.
func (inj *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := inj.ExtraLatency(); d > 0 {
			time.Sleep(d)
		}
		if rate := inj.ErrorRate(); rate > 0 {
			inj.mu.Lock()
			fail := inj.rng.Float64() < rate
			inj.mu.Unlock()
			if fail {
				http.Error(w, "chaos: injected error", http.StatusInternalServerError)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}
