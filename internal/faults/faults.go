// Package faults implements deterministic, seeded fault injection for
// the simulator: a time-ordered Plan of link and host fault events that
// an Injector applies to the fabric and the RPC stacks through narrow
// control interfaces. Everything is reproducible — the plan is data, the
// schedule runs on the simulator's event loop, and the only randomness
// (per-packet loss draws) comes from a dedicated RNG derived from the
// plan or run seed, so the main simulation RNG sequence is untouched and
// an empty plan leaves a run byte-identical to a fault-free build.
package faults

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"aequitas/internal/sim"
)

// Kind enumerates the fault event types.
type Kind uint8

const (
	// LinkDown blackholes all traffic on the target link until LinkUp:
	// arrivals are dropped silently and the transmitter pauses (queued
	// packets are retained, packets already in flight still deliver).
	LinkDown Kind = iota
	// LinkUp restores a downed link and restarts its transmitter.
	LinkUp
	// LinkLoss sets an independent per-packet random loss probability on
	// the target link; Rate 0 clears it.
	LinkLoss
	// HostCrash fails the target host: in-flight RPCs are lost, the
	// admission controller's learned state resets, outstanding-RPC
	// accounting clears, and peers tear down transport state toward it.
	HostCrash
	// HostRestart brings a crashed host back with empty state.
	HostRestart
	kindCount
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "linkdown"
	case LinkUp:
		return "linkup"
	case LinkLoss:
		return "loss"
	case HostCrash:
		return "crash"
	case HostRestart:
		return "restart"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsLink reports whether the kind targets a link (vs a host).
func (k Kind) IsLink() bool { return k <= LinkLoss }

// Event is one scheduled fault.
type Event struct {
	// At is the event's simulated-time offset from the start of the run.
	At   sim.Duration
	Kind Kind
	// Link names the target egress link for link events. The special form
	// "host:N" addresses both of host N's access links (its uplink and
	// the last-hop downlink toward it), which is how a NIC or ToR-port
	// failure isolates a host.
	Link string
	// Host is the target host id for HostCrash/HostRestart.
	Host int
	// Rate is the LinkLoss drop probability in [0, 1]; 0 clears loss.
	Rate float64
}

// Target renders the event's target for traces and reports.
func (e Event) Target() string {
	if e.Kind.IsLink() {
		return e.Link
	}
	return fmt.Sprintf("host:%d", e.Host)
}

// Plan is a deterministic fault schedule. The zero value (and nil) is
// the empty plan: no faults, no overhead.
type Plan struct {
	// Seed seeds the per-packet loss-draw RNG. 0 derives the seed from
	// the run seed, so the same SimConfig stays reproducible by default
	// while distinct runs draw distinct loss patterns.
	Seed int64
	// Events is the schedule; it need not be pre-sorted. Events at the
	// same instant apply in slice order.
	Events []Event
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate reports structural errors: negative times, unknown kinds,
// missing targets, loss rates outside [0, 1] (NaN included).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d: negative time %v", i, e.At)
		}
		if e.Kind >= kindCount {
			return fmt.Errorf("faults: event %d: unknown kind %d", i, e.Kind)
		}
		if e.Kind.IsLink() && e.Link == "" {
			return fmt.Errorf("faults: event %d: %s needs a link target", i, e.Kind)
		}
		if !e.Kind.IsLink() && e.Host < 0 {
			return fmt.Errorf("faults: event %d: %s host %d out of range", i, e.Kind, e.Host)
		}
		if e.Kind == LinkLoss && !(e.Rate >= 0 && e.Rate <= 1) {
			return fmt.Errorf("faults: event %d: loss rate %v out of [0, 1]", i, e.Rate)
		}
	}
	return nil
}

// sorted returns the events in schedule order (stable by time) without
// mutating the plan, which may be shared across concurrent sweep runs.
func (p *Plan) sorted() []Event {
	evs := make([]Event, len(p.Events))
	copy(evs, p.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Window is one interval during which a fault was active on a target:
// [Start, End) between a LinkDown and its LinkUp, a HostCrash and its
// HostRestart, or a non-zero LinkLoss and the event clearing it. Faults
// never repaired within the plan extend to sim.MaxTime.
type Window struct {
	Start, End sim.Duration
	Kind       Kind
	Target     string
}

// Contains reports whether t falls inside the window, widened by margin
// on both sides (audit checks use the margin to exclude drain effects
// just after repair).
func (w Window) Contains(t sim.Duration, margin sim.Duration) bool {
	return t >= w.Start-margin && t < w.End+margin
}

// Windows pairs the plan's fault/repair events into active intervals,
// in start-time order.
func (p *Plan) Windows() []Window {
	if p.Empty() {
		return nil
	}
	var out []Window
	open := map[string]int{} // "kindgroup/target" -> index into out
	key := func(e Event) string {
		switch e.Kind {
		case LinkDown, LinkUp:
			return "link/" + e.Target()
		case HostCrash, HostRestart:
			return "host/" + e.Target()
		default:
			return "loss/" + e.Target()
		}
	}
	for _, e := range p.sorted() {
		k := key(e)
		switch e.Kind {
		case LinkDown, HostCrash:
			if _, ok := open[k]; ok {
				continue // already down/crashed; ignore the duplicate
			}
			open[k] = len(out)
			out = append(out, Window{Start: e.At, End: sim.Duration(sim.MaxTime), Kind: e.Kind, Target: e.Target()})
		case LinkUp, HostRestart:
			if i, ok := open[k]; ok {
				out[i].End = e.At
				delete(open, k)
			}
		case LinkLoss:
			if i, ok := open[k]; ok {
				out[i].End = e.At
				delete(open, k)
			}
			if e.Rate > 0 {
				open[k] = len(out)
				out = append(out, Window{Start: e.At, End: sim.Duration(sim.MaxTime), Kind: LinkLoss, Target: e.Target()})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// ParsePlan reads a plan file: one event per line in the form
//
//	<offset> <event> <target> [rate]
//
// where offset is a Go duration ("30ms"), event is one of linkdown,
// linkup, loss, crash, restart, and target is a link name ("up-2",
// "down-0", "host:1" for both access links of host 1) or a bare host id
// for crash/restart. loss takes a rate in [0, 1]. '#' starts a comment;
// blank lines are ignored.
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
		if len(fields) < 3 {
			return nil, fmt.Errorf("faults: line %d: need <offset> <event> <target>", lineNo)
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: bad offset %q: %v", lineNo, fields[0], err)
		}
		e := Event{At: sim.Duration(sim.FromStd(d))}
		switch fields[1] {
		case "linkdown":
			e.Kind = LinkDown
		case "linkup":
			e.Kind = LinkUp
		case "loss":
			e.Kind = LinkLoss
		case "crash":
			e.Kind = HostCrash
		case "restart":
			e.Kind = HostRestart
		default:
			return nil, fmt.Errorf("faults: line %d: unknown event %q", lineNo, fields[1])
		}
		if e.Kind.IsLink() {
			e.Link = fields[2]
		} else {
			host, err := strconv.Atoi(strings.TrimPrefix(fields[2], "host:"))
			if err != nil {
				return nil, fmt.Errorf("faults: line %d: bad host %q", lineNo, fields[2])
			}
			e.Host = host
		}
		if e.Kind == LinkLoss {
			if len(fields) < 4 {
				return nil, fmt.Errorf("faults: line %d: loss needs a rate", lineNo)
			}
			rate, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("faults: line %d: bad rate %q", lineNo, fields[3])
			}
			e.Rate = rate
		}
		p.Events = append(p.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// PresetNames lists the built-in plan presets, for CLI help.
func PresetNames() []string { return []string{"flap", "crash", "flapcrash", "loss"} }

// Preset builds a named canonical plan scaled to a run of the given
// duration. All presets target host 1 (every topology has ≥ 2 hosts):
//
//	flap      — host 1's access links go down at 35% of the run for
//	            min(2ms, 10% of the run)
//	crash     — host 1 crashes at 60% of the run, restarts after the
//	            same outage span
//	flapcrash — both of the above
//	loss      — 1% random loss on host 1's access links over the middle
//	            40% of the run
func Preset(name string, duration time.Duration) (*Plan, error) {
	dur := sim.Duration(sim.FromStd(duration))
	if dur <= 0 {
		return nil, fmt.Errorf("faults: preset needs a positive duration")
	}
	outage := dur / 10
	if max := sim.Duration(sim.FromStd(2 * time.Millisecond)); outage > max {
		outage = max
	}
	const target = "host:1"
	flap := []Event{
		{At: dur * 35 / 100, Kind: LinkDown, Link: target},
		{At: dur*35/100 + outage, Kind: LinkUp, Link: target},
	}
	crash := []Event{
		{At: dur * 60 / 100, Kind: HostCrash, Host: 1},
		{At: dur*60/100 + outage, Kind: HostRestart, Host: 1},
	}
	switch name {
	case "flap":
		return &Plan{Events: flap}, nil
	case "crash":
		return &Plan{Events: crash}, nil
	case "flapcrash":
		return &Plan{Events: append(flap, crash...)}, nil
	case "loss":
		return &Plan{Events: []Event{
			{At: dur * 30 / 100, Kind: LinkLoss, Link: target, Rate: 0.01},
			{At: dur * 70 / 100, Kind: LinkLoss, Link: target, Rate: 0},
		}}, nil
	default:
		return nil, fmt.Errorf("faults: unknown preset %q (have %s)", name, strings.Join(PresetNames(), ", "))
	}
}
