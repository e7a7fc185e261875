package serve

import (
	"sync/atomic"
	"time"
)

// Brownout levels, from healthy to hard-shedding. Each level includes
// the measures of the ones below it.
const (
	// BrownoutOff: serve everything the controller admits.
	BrownoutOff int32 = iota
	// BrownoutThinScavenger: reject work running on the scavenger class
	// (downgraded or best-effort) instead of serving it — the cheapest
	// capacity to reclaim, since scavenger work has no SLO.
	BrownoutThinScavenger
	// BrownoutTighten: additionally tighten the effective admit
	// probability below the controller's p_admit by tightenFactor, biasing
	// Algorithm 1 toward shedding before queues grow.
	BrownoutTighten
	// BrownoutHardShed: reject all but hardShedKeep of inbound requests
	// before they reach the controller — the load-shedding of last resort.
	BrownoutHardShed
)

// The ladder's fixed parameters.
const (
	// badFraction is the fraction of a window's completions that must be
	// slow for the window to count as overloaded.
	badFraction = 0.5
	// tightenFactor multiplies the effective admit probability at
	// BrownoutTighten and above.
	tightenFactor = 0.5
	// hardShedKeep is the fraction of requests still accepted at
	// BrownoutHardShed, keeping a trickle of signal flowing so recovery
	// is observable.
	hardShedKeep = 0.05
)

// brownoutLevelName names a level for logs and dump details.
func brownoutLevelName(l int32) string {
	switch l {
	case BrownoutThinScavenger:
		return "thin-scavenger"
	case BrownoutTighten:
		return "tighten"
	case BrownoutHardShed:
		return "hard-shed"
	default:
		return "off"
	}
}

// BrownoutConfig parameterises the overload brownout controller: a
// damage-limitation ladder the serving layer climbs when completion
// latency says the process itself (not the network Algorithm 1 watches)
// is overloaded.
type BrownoutConfig struct {
	// LatencyThreshold is the completion latency above which a request
	// counts as slow. Required: with zero no completion is slow and the
	// ladder never climbs.
	LatencyThreshold time.Duration
	// Window is the evaluation cadence (default 1s).
	Window time.Duration
	// StepUpAfter is how many consecutive overloaded windows precede an
	// escalation (default 1: react fast).
	StepUpAfter int
	// StepDownAfter is how many consecutive healthy windows precede a
	// de-escalation (default 3: recover cautiously). The asymmetry is the
	// hysteresis that keeps the controller from oscillating.
	StepDownAfter int
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.StepUpAfter <= 0 {
		c.StepUpAfter = 1
	}
	if c.StepDownAfter <= 0 {
		c.StepDownAfter = 3
	}
	return c
}

// ladder is the level state machine. It has no clock: the completion
// aggregator counts each Window's completions and its election winner
// feeds them to evaluate, so there is no background goroutine and an
// idle process steps down only when traffic (and thus evidence of
// health) flows.
type ladder struct {
	stepUpAfter, stepDownAfter int

	// level is read by every request; transitions by snapshots.
	level       atomic.Int32
	transitions atomic.Int64
	// The streaks belong to the election winner.
	upStreak   int
	downStreak int
}

// Level reports the current brownout level.
func (l *ladder) Level() int32 {
	if l == nil {
		return BrownoutOff
	}
	return l.level.Load()
}

// evaluate closes one window that saw total completions, slow of them
// above LatencyThreshold, and reports the level before and after: up one
// after StepUpAfter consecutive overloaded windows, down one after
// StepDownAfter consecutive healthy ones.
func (l *ladder) evaluate(total, slow int64) (from, to int32) {
	from = l.level.Load()
	to = from
	if total > 0 && float64(slow)/float64(total) > badFraction {
		l.upStreak++
		l.downStreak = 0
		if l.upStreak >= l.stepUpAfter && from < BrownoutHardShed {
			to = from + 1
			l.upStreak = 0
		}
	} else {
		l.downStreak++
		l.upStreak = 0
		if l.downStreak >= l.stepDownAfter && from > BrownoutOff {
			to = from - 1
			l.downStreak = 0
		}
	}
	if to != from {
		l.level.Store(to)
		l.transitions.Add(1)
	}
	return from, to
}
