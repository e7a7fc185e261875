// Package chaos is the live server's binder for fault plans: an Injector
// applies the serving kinds of a faults.Plan — latency spikes, error
// bursts, quota-plane outage windows — to a running server. The plan, its
// grammar, windows and presets are internal/faults'; this package only
// applies events, on wall time or any offset source (deterministic tests
// drive Advance directly on a manual clock).
package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"aequitas/internal/faults"
)

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
	plan  []faults.Event
	quota QuotaPlane

	mu   sync.Mutex
	next int
	rng  *rand.Rand

	extraNS atomic.Int64
	errBits atomic.Uint64
}

// NewInjector builds an injector for plan (which may be nil or empty —
// the injector is then inert), refusing an invalid plan and one that
// holds a simulator kind. quota may be nil when the plan has no quota
// events.
func NewInjector(plan *faults.Plan, quota QuotaPlane) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{quota: quota, plan: plan.Sorted()}
	for _, e := range inj.plan {
		if !e.Kind.Serving() {
			return nil, fmt.Errorf("chaos: the live server cannot apply %s, a fault of the simulator (internal/faults)", e.Kind)
		}
	}
	seed := int64(1)
	if plan != nil && plan.Seed != 0 {
		seed = plan.Seed
	}
	inj.rng = rand.New(rand.NewSource(seed))
	return inj, nil
}

// Advance applies every event scheduled at or before now (an offset from
// the start of the run). Offsets must not move backwards.
func (inj *Injector) Advance(now time.Duration) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for inj.next < len(inj.plan) && inj.plan[inj.next].At.Std() <= now {
		e := inj.plan[inj.next]
		inj.next++
		switch e.Kind {
		case faults.Slow:
			inj.extraNS.Store(int64(e.Amount.Std()))
		case faults.Errors:
			inj.errBits.Store(math.Float64bits(e.Rate))
		case faults.QuotaDown, faults.QuotaUp:
			if inj.quota != nil {
				inj.quota.SetAvailable(e.Kind == faults.QuotaUp)
			}
		}
	}
}

// Applied reports how many events have been applied so far.
func (inj *Injector) Applied() int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return int64(inj.next)
}

// Done reports whether every scheduled event has been applied.
func (inj *Injector) Done() bool { return inj.Applied() == int64(len(inj.plan)) }

// ExtraLatency reports the currently injected per-request latency.
func (inj *Injector) ExtraLatency() time.Duration { return time.Duration(inj.extraNS.Load()) }

// ErrorRate reports the currently injected failure probability.
func (inj *Injector) ErrorRate() float64 { return math.Float64frombits(inj.errBits.Load()) }

// Run pumps the plan on the wall clock: every `every` (which must be
// positive), events that have come due are applied. It blocks until the
// context is cancelled or the plan is exhausted; run it in a goroutine.
func (inj *Injector) Run(ctx context.Context, every time.Duration) {
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
