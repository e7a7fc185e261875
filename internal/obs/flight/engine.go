package flight

import (
	"fmt"
	"sync"

	"aequitas/internal/sim"
)

// TriggerKind names what fired a flight dump.
type TriggerKind uint8

const (
	// TriggerBurnRate fires when the SLO miss rate burns error budget
	// faster than the threshold over both the short and long window.
	TriggerBurnRate TriggerKind = iota + 1
	// TriggerPAdmitDrop fires when the minimum admit probability falls by
	// more than the configured amount within the short window.
	TriggerPAdmitDrop
	// TriggerFault marks a dump taken at an injected fault boundary.
	TriggerFault
	// TriggerFinal marks the dump taken when a run or server shuts down.
	TriggerFinal
	// TriggerManual marks an operator-requested dump (/debug/flight).
	TriggerManual
	// TriggerBrownout marks a dump taken when the serving-side brownout
	// controller stepped up a degradation level.
	TriggerBrownout
)

func (k TriggerKind) String() string {
	switch k {
	case TriggerBurnRate:
		return "burn_rate"
	case TriggerPAdmitDrop:
		return "padmit_drop"
	case TriggerFault:
		return "fault"
	case TriggerFinal:
		return "final"
	case TriggerManual:
		return "manual"
	case TriggerBrownout:
		return "brownout"
	default:
		return "unknown"
	}
}

// triggerKinds maps dump-header trigger names back to kinds for the dump
// reader.
var triggerKinds = map[string]TriggerKind{
	"burn_rate":   TriggerBurnRate,
	"padmit_drop": TriggerPAdmitDrop,
	"fault":       TriggerFault,
	"final":       TriggerFinal,
	"manual":      TriggerManual,
	"brownout":    TriggerBrownout,
}

// Trigger describes one anomaly-engine firing (or synthetic dump cause).
type Trigger struct {
	Kind TriggerKind
	// At is the trigger's timestamp on the caller's clock.
	At sim.Time
	// Detail is a human-readable cause ("burn 42.0x/18.3x over 5s/60s").
	Detail string
}

// EngineConfig parameterises the anomaly engine. The zero value gives the
// 5s/60s multi-window burn-rate alert (the classic 5m/1h SRE shape scaled
// to serving-test time), a 1% SLO budget with a 10x burn threshold, and a
// 0.4 absolute p_admit drop trigger.
type EngineConfig struct {
	// ShortWindow and LongWindow are the two burn-rate windows. The alert
	// requires both to burn over threshold: the short window makes it
	// fast, the long window keeps blips from paging.
	ShortWindow sim.Duration
	LongWindow  sim.Duration
	// SLOBudget is the allowed SLO-miss fraction (the error budget).
	SLOBudget float64
	// BurnThreshold is the multiple of SLOBudget at which the miss rate
	// becomes an incident.
	BurnThreshold float64
	// MinSamples is the minimum number of completions inside the short
	// window before the burn rate is considered meaningful.
	MinSamples int64
	// PAdmitDrop triggers when the minimum admit probability observed at
	// ticks falls by at least this much (absolute) within ShortWindow.
	PAdmitDrop float64
	// Cooldown suppresses further triggers after one fires (default
	// LongWindow), bounding dump volume during a sustained incident.
	Cooldown sim.Duration
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.ShortWindow <= 0 {
		c.ShortWindow = 5 * sim.Second
	}
	if c.LongWindow <= 0 {
		c.LongWindow = 60 * sim.Second
	}
	if c.LongWindow < c.ShortWindow {
		c.LongWindow = c.ShortWindow
	}
	if c.SLOBudget <= 0 {
		c.SLOBudget = 0.01
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = 10
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 50
	}
	if c.PAdmitDrop <= 0 {
		c.PAdmitDrop = 0.4
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.LongWindow
	}
	return c
}

// engineSample is one Tick's cumulative counters.
type engineSample struct {
	ts        sim.Time
	met, miss int64
	minP      float64
}

// Engine is the SLO burn-rate anomaly detector. Feed it cumulative SLO
// counters and the minimum live admit probability on a fixed cadence via
// Tick; it reports when the window statistics cross the configured
// thresholds. Safe for concurrent use (ticks serialise on a mutex; the
// cadence makes contention irrelevant).
type Engine struct {
	cfg EngineConfig

	mu      sync.Mutex
	samples []engineSample
	fired   int
	lastAt  sim.Time
}

// NewEngine builds an engine, applying defaults to cfg.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() EngineConfig { return e.cfg }

// Fired reports how many triggers the engine has raised.
func (e *Engine) Fired() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired
}

// burnOver computes the budget burn multiple over the window ending at
// now: (miss delta / total delta) / budget against the oldest retained
// sample inside the window (or the oldest overall while history is still
// shorter than the window — an incident in a young process still counts).
// ok is false when the window holds fewer than MinSamples completions.
func (e *Engine) burnOver(now sim.Time, w sim.Duration, cur engineSample) (burn float64, ok bool) {
	base := e.samples[0]
	for _, s := range e.samples {
		if s.ts < now-w {
			base = s
			continue
		}
		break
	}
	dMiss := cur.miss - base.miss
	dTotal := dMiss + cur.met - base.met
	if dTotal < e.cfg.MinSamples {
		return 0, false
	}
	return float64(dMiss) / float64(dTotal) / e.cfg.SLOBudget, true
}

// Tick feeds one sample: ts on the caller's clock, the controller's
// cumulative SLO-met/missed counters, and the minimum admit probability
// across live channels (pass 1 when no channel exists yet). It returns a
// trigger when an anomaly condition crosses its threshold and the engine
// is out of cooldown.
func (e *Engine) Tick(ts sim.Time, sloMet, sloMiss int64, minPAdmit float64) (Trigger, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := engineSample{ts: ts, met: sloMet, miss: sloMiss, minP: minPAdmit}
	e.samples = append(e.samples, cur)
	// Prune history older than the long window, always keeping one sample
	// at or beyond the boundary so window deltas span the full window.
	cut := 0
	for cut+1 < len(e.samples) && e.samples[cut+1].ts <= ts-e.cfg.LongWindow {
		cut++
	}
	if cut > 0 {
		e.samples = append(e.samples[:0], e.samples[cut:]...)
	}
	if e.fired > 0 && ts-e.lastAt < e.cfg.Cooldown {
		return Trigger{}, false
	}

	if burnS, okS := e.burnOver(ts, e.cfg.ShortWindow, cur); okS && burnS >= e.cfg.BurnThreshold {
		if burnL, okL := e.burnOver(ts, e.cfg.LongWindow, cur); okL && burnL >= e.cfg.BurnThreshold {
			e.fired++
			e.lastAt = ts
			return Trigger{
				Kind: TriggerBurnRate,
				At:   ts,
				Detail: fmt.Sprintf("burn %.1fx/%.1fx over %v/%v (budget %g, threshold %gx)",
					burnS, burnL, e.cfg.ShortWindow.Std(), e.cfg.LongWindow.Std(), e.cfg.SLOBudget, e.cfg.BurnThreshold),
			}, true
		}
	}

	// p_admit drop: the highest minimum seen within the short window
	// versus now. A collapse from 1.0 to 0.5 inside one window is the
	// paper's overload signature.
	maxMin := minPAdmit
	for _, s := range e.samples {
		if s.ts >= ts-e.cfg.ShortWindow && s.minP > maxMin {
			maxMin = s.minP
		}
	}
	if drop := maxMin - minPAdmit; drop >= e.cfg.PAdmitDrop {
		e.fired++
		e.lastAt = ts
		return Trigger{
			Kind: TriggerPAdmitDrop,
			At:   ts,
			Detail: fmt.Sprintf("min p_admit fell %.2f (%.2f to %.2f) within %v",
				drop, maxMin, minPAdmit, e.cfg.ShortWindow.Std()),
		}, true
	}
	return Trigger{}, false
}
