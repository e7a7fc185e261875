// Package faults is the one vocabulary for scheduled faults, in the packet
// simulator and in the live server alike: a Plan is a list of Events, each
// one of nine Kinds, with one text grammar, window rule and preset table.
// Applying a fault is different work on each side, so there are two
// binders, and each refuses a plan holding a kind of the other side:
// Injector (this package) schedules the link and host kinds on the
// simulator's event loop, serve/chaos applies the serving kinds to a
// running server on the wall clock.
//
// A plan file has one "<offset> <event> [target] [arg]" per line. offset
// is a Go duration from the start of the run, event names fold case, '#'
// starts a comment, and a field the kind does not take is an error:
//
//	30ms linkdown up-2         a link name, or host:N for both access links of host N
//	35ms linkup   up-2
//	30ms loss     host:1 0.01  loss rate in [0, 1]; 0 clears
//	60ms crash    1            a host id, 1 or host:1
//	62ms restart  host:1
//	15s  slow     50ms         extra latency per request; none or 0 clears
//	24s  errs     0.2          failure rate in [0, 1]; none or 0 clears
//	15s  quotadown             quota plane unreachable until quotaup
//	36s  quotaup
//
// Offsets are the simulator's picoseconds on both sides: its goldens pin
// preset offsets to the picosecond, and the live server already runs on
// sim.Time through core.Clock (the wall-clock binder converts with Std()).
// Everything is reproducible — the plan is data, and the only randomness
// (per-packet loss draws, per-request error draws) comes from an RNG
// seeded from the plan or the run, so the main simulation RNG sequence is
// untouched and an empty plan leaves a run byte-identical to a fault-free
// build.
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
	// Slow adds Amount of extra latency to every wrapped request; Amount
	// zero clears it.
	Slow
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

// carries says what a plan line holds after the event name.
type carries uint8

const (
	nothing   carries = iota
	link              // a link target
	linkRate          // a link target and a rate
	host              // a host target
	optRate           // a rate, or nothing for 0
	optAmount         // a duration, or nothing for 0
)

// kinds describes every Kind once: its spelling, what its line carries,
// the kind whose window it opens or closes (an event of that kind opens
// it, at a non-zero level where the kind has one), and which binder
// applies it.
var kinds = [kindCount]struct {
	name    string
	carries carries
	window  Kind
	serving bool
}{
	LinkDown:    {"linkdown", link, LinkDown, false},
	LinkUp:      {"linkup", link, LinkDown, false},
	LinkLoss:    {"loss", linkRate, LinkLoss, false},
	HostCrash:   {"crash", host, HostCrash, false},
	HostRestart: {"restart", host, HostCrash, false},
	Slow:        {"slow", optAmount, Slow, true},
	Errors:      {"errs", optRate, Errors, true},
	QuotaDown:   {"quotadown", nothing, QuotaDown, true},
	QuotaUp:     {"quotaup", nothing, QuotaDown, true},
}

func (k Kind) String() string {
	if k >= kindCount {
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
	return kinds[k].name
}

// KindNamed returns the kind spelled name, as String spells it.
func KindNamed(name string) (Kind, bool) {
	for k := range kinds {
		if kinds[k].name == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Serving reports whether the live server's binder (serve/chaos) applies
// the kind; the simulator's Injector applies the others.
func (k Kind) Serving() bool { return k < kindCount && kinds[k].serving }

// isLink reports whether the kind targets a link (vs a host).
func (k Kind) isLink() bool { return kinds[k].carries == link || kinds[k].carries == linkRate }

// HostTarget names host n as a target: the host itself for
// HostCrash/HostRestart, and both of its access links (its uplink and the
// last-hop downlink toward it) for the link kinds, which is how a NIC or
// ToR-port failure isolates a host.
func HostTarget(n int) string { return "host:" + strconv.Itoa(n) }

// Event is one scheduled fault.
type Event struct {
	// At is the event's offset from the start of the run.
	At   sim.Duration
	Kind Kind
	// Target is an egress link name or HostTarget(n) for the link kinds,
	// HostTarget(n) for HostCrash/HostRestart, and empty for the serving
	// kinds, which act on the whole server.
	Target string
	// Rate is the LinkLoss drop or Errors failure probability in [0, 1];
	// 0 clears it.
	Rate float64
	// Amount is the extra latency of a Slow event; 0 clears it.
	Amount sim.Duration
}

// Onset reports whether applying the event degrades service (a link or
// quota plane going down, a crash, a non-zero loss rate, error rate or
// extra latency) as opposed to repairing it.
func (e Event) Onset() bool {
	if e.Kind >= kindCount || kinds[e.Kind].window != e.Kind {
		return false
	}
	switch kinds[e.Kind].carries {
	case linkRate, optRate:
		return e.Rate > 0
	case optAmount:
		return e.Amount > 0
	}
	return true
}

// Plan is a deterministic fault schedule. The zero value (and nil) is
// the empty plan: no faults, no overhead.
type Plan struct {
	// Seed seeds the binder's RNG: the per-packet loss draw in the
	// simulator (0 derives the seed from the run seed, so the same
	// SimConfig stays reproducible by default while distinct runs draw
	// distinct loss patterns), the per-request error draw in the live
	// server (0 means 1).
	Seed int64
	// Events is the schedule; it need not be pre-sorted. Events at the
	// same instant apply in slice order.
	Events []Event
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate reports structural errors: negative times, unknown kinds, a
// missing or malformed target (or one on a kind that takes none), rates
// outside [0, 1] (NaN included), negative slow amounts.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		bad := func(format string, a ...any) error {
			return fmt.Errorf("faults: event %d: %s: "+format, append([]any{i, e.Kind}, a...)...)
		}
		switch {
		case e.Kind >= kindCount:
			return bad("unknown kind")
		case e.At < 0:
			return bad("negative time %v", e.At)
		case !(e.Rate >= 0 && e.Rate <= 1):
			return bad("rate %v out of [0, 1]", e.Rate)
		case e.Amount < 0:
			return bad("negative amount %v", e.Amount)
		}
		switch kinds[e.Kind].carries {
		case link, linkRate:
			if e.Target == "" {
				return bad("needs a link target")
			}
		case host:
			if n, err := strconv.Atoi(strings.TrimPrefix(e.Target, "host:")); err != nil || n < 0 || e.Target != HostTarget(n) {
				return bad("target %q is not a host (want \"host:N\")", e.Target)
			}
		default:
			if e.Target != "" {
				return bad("takes no target, got %q", e.Target)
			}
		}
	}
	return nil
}

// Sorted returns the events in schedule order (stable by time) without
// mutating the plan, which may be shared across concurrent sweep runs.
func (p *Plan) Sorted() []Event {
	if p == nil {
		return nil
	}
	evs := make([]Event, len(p.Events))
	copy(evs, p.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Window is one interval [Start, End) during which a fault was active on
// a target: Kind is the kind that opened it (LinkDown, LinkLoss,
// HostCrash, Slow, Errors or QuotaDown). Faults never repaired within the
// plan extend to sim.MaxTime.
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

// Windows pairs the plan's onset and repair events into active
// intervals, in start-time order. A window runs from the first onset on
// its (kind, target) to the first repair after it: an onset while the
// window is open — a second linkdown, a loss rate re-set to another
// non-zero value — leaves it as it is, and a repair with nothing open is
// ignored.
func (p *Plan) Windows() []Window {
	var out []Window
	type key struct {
		kind   Kind
		target string
	}
	open := map[key]int{} // index into out
	for _, e := range p.Sorted() {
		if e.Kind >= kindCount {
			continue
		}
		k := key{kinds[e.Kind].window, e.Target}
		i, isOpen := open[k]
		switch {
		case e.Onset() && !isOpen:
			open[k] = len(out)
			out = append(out, Window{Start: e.At, End: sim.MaxTime, Kind: k.kind, Target: e.Target})
		case !e.Onset() && isOpen:
			out[i].End = e.At
			delete(open, k)
		}
	}
	return out
}

// maxSpan is the longest wall-clock span the simulator's picosecond clock
// holds (about 106 days); sim.FromStd wraps beyond it.
const maxSpan = time.Duration(sim.MaxTime / sim.Nanosecond)

// parseSpan reads a Go duration that fits the simulator's clock.
func parseSpan(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && (d > maxSpan || d < -maxSpan) {
		err = fmt.Errorf("beyond the simulator clock's %v", maxSpan)
	}
	return sim.FromStd(d), err
}

// ParsePlan reads a plan file in the grammar of the package comment and
// validates it.
func ParsePlan(r io.Reader) (*Plan, error) {
	p := &Plan{}
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		e, err := parseEvent(fields)
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: %v", lineNo, err)
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

// parseEvent reads the fields of one plan line as the kind's table row
// says: the target if it takes one, then its argument, then nothing.
func parseEvent(fields []string) (e Event, err error) {
	if len(fields) < 2 {
		return e, fmt.Errorf("want \"<offset> <event> [target] [arg]\"")
	}
	if e.At, err = parseSpan(fields[0]); err != nil {
		return e, fmt.Errorf("bad offset %q: %v", fields[0], err)
	}
	name := strings.ToLower(fields[1])
	if name == "errors" {
		name = "errs"
	}
	var ok bool
	if e.Kind, ok = KindNamed(name); !ok {
		return e, fmt.Errorf("unknown event %q", fields[1])
	}
	c, args := kinds[e.Kind].carries, fields[2:]
	if c == link || c == linkRate || c == host {
		if len(args) == 0 {
			return e, fmt.Errorf("%s needs a target", e.Kind)
		}
		e.Target, args = args[0], args[1:]
		if n, err := strconv.Atoi(e.Target); c == host && err == nil {
			e.Target = HostTarget(n) // a bare host id
		}
	}
	switch {
	case len(args) == 0 && c == linkRate:
		return e, fmt.Errorf("%s needs a rate", e.Kind)
	case len(args) == 0:
	case c == linkRate || c == optRate:
		if e.Rate, err = strconv.ParseFloat(args[0], 64); err != nil {
			return e, fmt.Errorf("bad %s rate %q", e.Kind, args[0])
		}
		args = args[1:]
	case c == optAmount:
		if e.Amount, err = parseSpan(args[0]); err != nil {
			return e, fmt.Errorf("bad %s amount %q: %v", e.Kind, args[0], err)
		}
		args = args[1:]
	}
	if len(args) > 0 {
		return e, fmt.Errorf("%s takes no %q", e.Kind, args[0])
	}
	return e, nil
}

// presets is the one preset table, written in the plan grammar with a
// percentage of the run where a plan file has an offset; "+" adds the
// outage span, min(2ms, 10% of the run). The simulator's presets target
// host 1 (every topology has ≥ 2 hosts); every preset shows onset, steady
// fault and recovery inside the run it is scaled to.
var presets = []struct {
	name    string
	serving bool
	lines   []string
}{
	{"flap", false, []string{"35 linkdown host:1", "35+ linkup host:1"}},
	{"crash", false, []string{"60 crash host:1", "60+ restart host:1"}},
	{"flapcrash", false, []string{"35 linkdown host:1", "35+ linkup host:1", "60 crash host:1", "60+ restart host:1"}},
	{"loss", false, []string{"30 loss host:1 0.01", "70 loss host:1 0"}},
	{"latency", true, []string{"25 slow 50ms", "60 slow"}},
	{"errors", true, []string{"25 errs 0.3", "60 errs"}},
	{"outage", true, []string{"25 quotadown", "60 quotaup"}},
	// The full overload drill: latency spike plus quota-plane outage, with
	// an error burst inside them.
	{"drill", true, []string{"25 slow 50ms", "25 quotadown", "40 errs 0.2", "50 errs", "60 slow", "60 quotaup"}},
}

// PresetNames lists the built-in presets one side's binder applies (the
// live server's when serving, else the simulator's), for CLI help.
func PresetNames(serving bool) []string {
	var names []string
	for _, p := range presets {
		if p.serving == serving {
			names = append(names, p.name)
		}
	}
	return names
}

// Preset builds a named canonical plan (see the preset table) scaled to a
// run of the given duration, which must be positive and fit the
// simulator's clock. Names are case-insensitive.
func Preset(name string, duration time.Duration) (*Plan, error) {
	if duration <= 0 || duration > maxSpan {
		return nil, fmt.Errorf("faults: preset needs a positive duration of at most %v, got %v", maxSpan, duration)
	}
	dur := sim.FromStd(duration)
	for _, p := range presets {
		if !strings.EqualFold(p.name, name) {
			continue
		}
		plan := &Plan{}
		for _, line := range p.lines {
			fields := strings.Fields(line)
			pct, afterOutage := strings.CutSuffix(fields[0], "+")
			n, _ := strconv.Atoi(pct)
			fields[0] = "0"
			e, err := parseEvent(fields)
			if err != nil {
				return nil, fmt.Errorf("faults: preset %s: %v", p.name, err)
			}
			// dur is a whole number of nanoseconds, so dur/100 is exact and
			// the product cannot overflow.
			e.At = dur / 100 * sim.Duration(n)
			if afterOutage {
				e.At += min(dur/10, 2*sim.Millisecond)
			}
			plan.Events = append(plan.Events, e)
		}
		return plan, nil
	}
	return nil, fmt.Errorf("faults: unknown preset %q (have %s; %s)", name,
		strings.Join(PresetNames(false), ", "), strings.Join(PresetNames(true), ", "))
}
