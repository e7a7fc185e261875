package serve

import (
	"context"
	"net/http"
	"time"

	"aequitas"
)

// HeaderDeadline carries a request's remaining deadline budget as a Go
// duration string ("250ms"). Budgets are durations, not absolute times,
// so client and server clocks need not agree; a request context deadline
// is honoured as a fallback.
const HeaderDeadline = "X-Aequitas-Deadline"

// HeaderExpired marks a response rejected because the request's deadline
// budget could not cover the observed per-class latency floor.
const HeaderExpired = "X-Aequitas-Expired"

// floorSafetyFactor scales the learned floor before a budget is compared
// with it: 2.0 would reject requests whose budget is under twice the
// floor.
const floorSafetyFactor = 1.0

// DeadlineConfig enables deadline-budget admission: requests whose
// remaining budget cannot cover the class's observed completion-latency
// floor are rejected before the admission draw ("expired before admit").
// Admitting such a request only burns server capacity on work the client
// will have abandoned by the time the response arrives. The floor is the
// completion aggregator's (see classWindow).
type DeadlineConfig struct {
	// MinBudget rejects any budget below this outright, even before a
	// latency floor has been learned. Zero disables the static check.
	MinBudget time.Duration
}

// budgetFromRequest extracts a request's remaining budget: the deadline
// header h carries (a Go duration) wins; otherwise ctx's deadline counts
// down on the wall clock. ok is false when the request carries neither,
// or deadline admission is off. The interceptor, which has no headers,
// passes a nil h.
func (a *Admission) budgetFromRequest(h http.Header, ctx context.Context) (time.Duration, bool) {
	if a.dl == nil {
		return 0, false
	}
	if s := headerValue(h, HeaderDeadline); s != "" {
		if b, err := time.ParseDuration(s); err == nil {
			return b, true
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		return time.Until(dl), true
	}
	return 0, false
}

// expired reports whether budget cannot cover class's latency floor (or
// the static MinBudget).
func (a *Admission) expired(class aequitas.Class, budget time.Duration) bool {
	if budget <= 0 || budget < a.dl.MinBudget {
		return true
	}
	fl := a.done.floor(classSlot(class))
	return fl > 0 && float64(budget) < floorSafetyFactor*float64(fl)
}
