package faults

import (
	"fmt"
	"math/rand"

	"aequitas/internal/sim"
)

// LinkControl is the slice of a link the injector drives. netsim.Link
// implements it.
type LinkControl interface {
	SetDown(s *sim.Simulator, down bool)
	SetLoss(rate float64, rng *rand.Rand)
}

// HostControl crashes and restarts one host's end-host state (RPC stack,
// transport endpoint, admission controller). The run pipeline implements
// it, because the pieces live in different layers.
type HostControl interface {
	Crash(s *sim.Simulator)
	Restart(s *sim.Simulator)
}

// Injector is the simulator's binder: it schedules a Plan of link and
// host kinds onto a simulator. Targets are bound by name before Schedule;
// unknown targets fail fast rather than silently injecting nothing.
type Injector struct {
	plan  *Plan
	rng   *rand.Rand
	links map[string][]LinkControl
	hosts map[string]HostControl

	// OnEvent, when set, observes every applied event (trace emission,
	// degradation accounting).
	OnEvent func(s *sim.Simulator, e Event)
}

// NewInjector builds an injector for plan. runSeed derives the loss-draw
// RNG seed when the plan does not pin one, so loss patterns are
// reproducible per run but independent of the simulation's main RNG.
func NewInjector(plan *Plan, runSeed int64) *Injector {
	seed := plan.Seed
	if seed == 0 {
		seed = runSeed ^ 0x6c657373 // "loss"
	}
	return &Injector{
		plan:  plan,
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[string][]LinkControl),
		hosts: make(map[string]HostControl),
	}
}

// BindLink registers the controls behind a target name. Binding the same
// name twice appends, so "host:N" can map to both access links.
func (in *Injector) BindLink(name string, ls ...LinkControl) {
	in.links[name] = append(in.links[name], ls...)
}

// BindHost registers the control for host id.
func (in *Injector) BindHost(id int, h HostControl) { in.hosts[HostTarget(id)] = h }

// Schedule validates the plan, refuses one holding a serving kind, checks
// every event's target and only then schedules the plan on s. Events at
// the same instant fire in plan order (the simulator breaks timestamp
// ties by scheduling order).
func (in *Injector) Schedule(s *sim.Simulator) error {
	if err := in.plan.Validate(); err != nil {
		return err
	}
	evs := in.plan.Sorted()
	for _, e := range evs {
		if e.Kind.Serving() {
			return fmt.Errorf("faults: the simulator cannot apply %s, a fault of the live server (serve/chaos)", e.Kind)
		} else if e.Kind.isLink() {
			if len(in.links[e.Target]) == 0 {
				return fmt.Errorf("faults: no link named %q", e.Target)
			}
		} else if in.hosts[e.Target] == nil {
			return fmt.Errorf("faults: no host %q", e.Target)
		}
	}
	for _, e := range evs {
		s.AtFunc(sim.Time(e.At), func(s *sim.Simulator) { in.apply(s, e) })
	}
	return nil
}

func (in *Injector) apply(s *sim.Simulator, e Event) {
	switch e.Kind {
	case LinkDown, LinkUp:
		for _, l := range in.links[e.Target] {
			l.SetDown(s, e.Kind == LinkDown)
		}
	case LinkLoss:
		for _, l := range in.links[e.Target] {
			l.SetLoss(e.Rate, in.rng)
		}
	case HostCrash:
		in.hosts[e.Target].Crash(s)
	case HostRestart:
		in.hosts[e.Target].Restart(s)
	}
	if in.OnEvent != nil {
		in.OnEvent(s, e)
	}
}
