package faults

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"aequitas/internal/sim"
)

const ms = sim.Millisecond

func TestKindNames(t *testing.T) {
	want := map[Kind]string{
		LinkDown: "linkdown", LinkUp: "linkup", LinkLoss: "loss",
		HostCrash: "crash", HostRestart: "restart",
		Slow: "slow", Errors: "errs", QuotaDown: "quotadown", QuotaUp: "quotaup",
	}
	if len(want) != int(kindCount) {
		t.Fatalf("table names %d kinds, enum has %d", len(want), kindCount)
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
		if got, ok := KindNamed(s); !ok || got != k {
			t.Errorf("KindNamed(%q) = %v, %v", s, got, ok)
		}
		if wantLink := k <= LinkLoss; k.isLink() != wantLink {
			t.Errorf("%s.isLink() = %v", k, !wantLink)
		}
		if wantServing := k >= Slow; k.Serving() != wantServing {
			t.Errorf("%s.Serving() = %v", k, !wantServing)
		}
	}
	if _, ok := KindNamed("LINKDOWN"); ok {
		t.Error("KindNamed folds case; only the parser should")
	}
	if s := kindCount.String(); s != "Kind(9)" || kindCount.Serving() {
		t.Errorf("out-of-range kind: %q, serving %v", s, kindCount.Serving())
	}
}

func TestOnset(t *testing.T) {
	onsets := []Event{
		{Kind: LinkDown, Target: "x"}, {Kind: HostCrash, Target: "host:0"}, {Kind: QuotaDown},
		{Kind: LinkLoss, Target: "x", Rate: 0.1}, {Kind: Errors, Rate: 1}, {Kind: Slow, Amount: 1},
	}
	repairs := []Event{
		{Kind: LinkUp, Target: "x"}, {Kind: HostRestart, Target: "host:0"}, {Kind: QuotaUp},
		{Kind: LinkLoss, Target: "x"}, {Kind: Errors}, {Kind: Slow}, {Kind: kindCount},
	}
	for _, e := range onsets {
		if !e.Onset() {
			t.Errorf("%+v is not an onset", e)
		}
	}
	for _, e := range repairs {
		if e.Onset() {
			t.Errorf("%+v is an onset", e)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	bad := map[string]Event{
		"negative time":     {At: -1, Kind: LinkDown, Target: "up-0"},
		"unknown kind":      {Kind: kindCount, Target: "up-0"},
		"missing link":      {Kind: LinkDown},
		"negative host":     {Kind: HostCrash, Target: "host:-1"},
		"host not a host":   {Kind: HostCrash, Target: "up-0"},
		"bare host id":      {Kind: HostRestart, Target: "1"},
		"loss rate > 1":     {Kind: LinkLoss, Target: "up-0", Rate: 1.5},
		"loss rate < 0":     {Kind: LinkLoss, Target: "up-0", Rate: -0.01},
		"loss rate NaN":     {Kind: LinkLoss, Target: "up-0", Rate: math.NaN()},
		"errs rate > 1":     {Kind: Errors, Rate: 1.5},
		"errs rate NaN":     {Kind: Errors, Rate: math.NaN()},
		"errs rate -Inf":    {Kind: Errors, Rate: math.Inf(-1)},
		"negative slow":     {Kind: Slow, Amount: -1},
		"target on serving": {Kind: QuotaDown, Target: "up-0"},
	}
	for name, e := range bad {
		err := (&Plan{Events: []Event{{Kind: QuotaUp}, e}}).Validate()
		if err == nil {
			t.Errorf("%s: validated", name)
		} else if !strings.Contains(err.Error(), "event 1") {
			t.Errorf("%s: error does not name the event: %v", name, err)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	if !nilPlan.Empty() || nilPlan.Sorted() != nil || nilPlan.Windows() != nil {
		t.Error("nil plan is not the empty plan")
	}
}

func TestSortedDoesNotMutate(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 20, Kind: LinkUp, Target: "x"},
		{At: 10, Kind: LinkDown, Target: "x"},
	}}
	s := p.Sorted()
	if s[0].At != 10 || s[1].At != 20 {
		t.Errorf("sorted order: %+v", s)
	}
	if p.Events[0].At != 20 {
		t.Error("Sorted() mutated the shared plan")
	}
}

func TestWindows(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 5 * ms, Kind: HostCrash, Target: "host:2"}, // never restarted
		{At: 1 * ms, Kind: LinkDown, Target: "up-0"},
		{At: 2 * ms, Kind: LinkUp, Target: "up-0"},
		{At: 1 * ms, Kind: LinkLoss, Target: "down-1", Rate: 0.05},
		{At: 3 * ms, Kind: LinkLoss, Target: "down-1", Rate: 0}, // clears
		{At: 6 * ms, Kind: Slow, Amount: 20 * ms},
		{At: 7 * ms, Kind: QuotaDown},
		{At: 8 * ms, Kind: Slow},
		{At: 9 * ms, Kind: QuotaUp},
		{At: 10 * ms, Kind: Errors, Rate: 0.5}, // never cleared
	}}
	want := []Window{
		{1 * ms, 2 * ms, LinkDown, "up-0"},
		{1 * ms, 3 * ms, LinkLoss, "down-1"},
		{5 * ms, sim.MaxTime, HostCrash, "host:2"},
		{6 * ms, 8 * ms, Slow, ""},
		{7 * ms, 9 * ms, QuotaDown, ""},
		{10 * ms, sim.MaxTime, Errors, ""},
	}
	ws := p.Windows()
	if fmt.Sprint(ws) != fmt.Sprint(want) {
		t.Fatalf("windows = %+v\nwant      %+v", ws, want)
	}
	if !ws[0].Contains(1*ms, 0) || ws[0].Contains(2*ms, 0) {
		t.Error("Contains is not [start, end)")
	}
	if !ws[0].Contains(2*ms+ms/2, ms) || ws[0].Contains(4*ms, ms) {
		t.Error("Contains margin wrong")
	}
}

// TestWindowRule pins the one window rule: a window runs from the first
// onset on its (kind, target) to the first repair; an onset on an open
// window does not split it, a repair with nothing open is ignored, and
// targets are independent.
func TestWindowRule(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 1 * ms, Kind: LinkUp, Target: "a"}, // nothing open
		{At: 2 * ms, Kind: LinkLoss, Target: "a", Rate: 0.1},
		{At: 3 * ms, Kind: LinkLoss, Target: "a", Rate: 0.2}, // level re-set
		{At: 3 * ms, Kind: LinkLoss, Target: "b", Rate: 0.2},
		{At: 4 * ms, Kind: LinkLoss, Target: "a"},
		{At: 5 * ms, Kind: Errors, Rate: 1},
		{At: 6 * ms, Kind: Errors, Rate: 0.5},
		{At: 7 * ms, Kind: Errors},
		{At: 8 * ms, Kind: Errors},
	}}
	want := []Window{
		{2 * ms, 4 * ms, LinkLoss, "a"},
		{3 * ms, sim.MaxTime, LinkLoss, "b"},
		{5 * ms, 7 * ms, Errors, ""},
	}
	if ws := p.Windows(); fmt.Sprint(ws) != fmt.Sprint(want) {
		t.Errorf("windows = %+v\nwant      %+v", ws, want)
	}
}

func TestParsePlan(t *testing.T) {
	in := `
# flap then crash, then the serving half
1ms linkdown host:1
2ms linkup   host:1   # repair
3ms LOSS     up-0 0.02
4ms crash    1
5ms restart  host:1
1s  slow 20ms
2s  ERRS 0.3
3s  errors 1e-3 # alias
4s  quotadown
5s  QuotaUp
6s  errs 0
7s  slow
`
	p, err := ParsePlan(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 1 * ms, Kind: LinkDown, Target: "host:1"},
		{At: 2 * ms, Kind: LinkUp, Target: "host:1"},
		{At: 3 * ms, Kind: LinkLoss, Target: "up-0", Rate: 0.02},
		{At: 4 * ms, Kind: HostCrash, Target: "host:1"},
		{At: 5 * ms, Kind: HostRestart, Target: "host:1"},
		{At: 1 * sim.Second, Kind: Slow, Amount: 20 * ms},
		{At: 2 * sim.Second, Kind: Errors, Rate: 0.3},
		{At: 3 * sim.Second, Kind: Errors, Rate: 1e-3},
		{At: 4 * sim.Second, Kind: QuotaDown},
		{At: 5 * sim.Second, Kind: QuotaUp},
		{At: 6 * sim.Second, Kind: Errors},
		{At: 7 * sim.Second, Kind: Slow},
	}
	if len(p.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(p.Events), len(want))
	}
	for i, w := range want {
		if p.Events[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, p.Events[i], w)
		}
	}
}

// TestParsePlanErrors is the one error table: every row the two former
// parsers' tables refused, the lines only one of them refused, and the
// offsets that used to wrap the picosecond clock. Each error names the
// line, and its offending part where want says so.
func TestParsePlanErrors(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		// internal/faults' table
		{"1ms linkdown", "needs a target"},
		{"xx linkdown up-0", "bad offset"},
		{"1ms explode up-0", `unknown event "explode"`},
		{"1ms crash up-0", `"up-0" is not a host`},
		{"1ms loss up-0", "needs a rate"},
		{"1ms loss up-0 nope", `bad loss rate "nope"`},
		{"1ms loss up-0 2.0", "out of [0, 1]"},
		{"10ms loss host:1 NaN", "out of [0, 1]"},
		{"10ms loss host:1 +Inf", "out of [0, 1]"},
		// serve/chaos' table
		{"1s explode", "unknown event"},
		{"soon slow 2ms", "bad offset"},
		{"1s errs 1.5", "out of [0, 1]"},
		{"1s errs NaN", "out of [0, 1]"},
		{"1s errs -Inf", "out of [0, 1]"},
		{"1s skew 5ms", "unknown event"},
		{"1s slow 2ms extra junk", `slow takes no "extra"`},
		{"1s", "want"},
		{"-1s slow 1ms", "negative time"},
		{"1s slow -1ms", "negative amount"},
		// one strictness: lines one parser let through
		{"1ms linkdown up-0 junk more junk", `linkdown takes no "junk"`},
		{"1ms crash host:1 0.5", `crash takes no "0.5"`},
		{"1ms restart 1 now", `restart takes no "now"`},
		{"1ms loss up-0 0.1 0.2", `loss takes no "0.2"`},
		{"1s errs 0.1 0.2", `errs takes no "0.2"`},
		{"1s quotadown now", `quotadown takes no "now"`},
		{"1s quotaup host:1", `quotaup takes no "host:1"`},
		{"1ms crash host:-1", "not a host"},
		{"1ms crash host:host:1", "not a host"},
		{"1s slow fast", `bad slow amount "fast"`},
		// offsets and amounts beyond the picosecond clock
		{"5125h linkdown up-0", "bad offset"},
		{"2562047h linkdown up-0", "bad offset"},
		{"-2562047h linkdown up-0", "bad offset"},
		{"1s slow 5125h", "bad slow amount"},
	} {
		_, err := ParsePlan(strings.NewReader("# header\n" + tc.line))
		switch {
		case err == nil:
			t.Errorf("ParsePlan(%q) accepted", tc.line)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("ParsePlan(%q) = %v, want it to say %q", tc.line, err, tc.want)
		case !strings.Contains(err.Error(), "line 2") && !strings.Contains(err.Error(), "event 0"):
			t.Errorf("ParsePlan(%q) = %v, names neither line nor event", tc.line, err)
		}
	}
	// The largest offset that fits is accepted as it is.
	p, err := ParsePlan(strings.NewReader("2562h linkdown up-0"))
	if err != nil || p.Events[0].At != 2562*3600*sim.Second {
		t.Errorf("2562h: %v, %+v", err, p)
	}
}

func TestPresets(t *testing.T) {
	const run = 40 * time.Millisecond
	names := append(PresetNames(false), PresetNames(true)...)
	if len(names) != len(presets) || len(PresetNames(false)) != 4 {
		t.Fatalf("preset names: %v", names)
	}
	for _, name := range names {
		p, err := Preset(name, run)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Empty() {
			t.Errorf("%s: empty", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Every preset is one side's, and every window closes before the
		// run ends.
		for _, e := range p.Events {
			if e.Kind.Serving() != p.Events[0].Kind.Serving() {
				t.Errorf("%s: mixes simulator and serving kinds", name)
			}
		}
		if len(p.Windows()) == 0 {
			t.Errorf("%s: no fault window", name)
		}
		for _, w := range p.Windows() {
			if w.End > sim.FromStd(run) {
				t.Errorf("%s: window %+v open past the run", name, w)
			}
		}
	}
	if p, err := Preset("FlapCrash", run); err != nil || len(p.Events) != 4 {
		t.Errorf("preset names do not fold case: %v", err)
	}
	for name, d := range map[string]time.Duration{
		"nope": run, "flap": 0, "drill": 0, "loss": -time.Second, "crash": 5125 * time.Hour,
	} {
		if _, err := Preset(name, d); err == nil {
			t.Errorf("Preset(%q, %v) accepted", name, d)
		}
	}
}

// TestPresetOffsets pins every preset's offsets to the values the two
// former preset functions produced: the simulator's in picoseconds (a run
// length that is not a round number of microseconds shows a preset
// computed in nanoseconds, 432 098 000 for flap's link-down), the serving
// ones in the nanoseconds the wall-clock binder compares with.
func TestPresetOffsets(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  time.Duration
		want []sim.Duration
	}{
		{"flap", 5 * time.Millisecond, []sim.Duration{1_750_000_000, 2_250_000_000}},
		{"crash", 5 * time.Millisecond, []sim.Duration{3_000_000_000, 3_500_000_000}},
		{"flapcrash", 5 * time.Millisecond, []sim.Duration{1_750_000_000, 2_250_000_000, 3_000_000_000, 3_500_000_000}},
		{"loss", 5 * time.Millisecond, []sim.Duration{1_500_000_000, 3_500_000_000}},
		{"flap", 1_234_567, []sim.Duration{432_098_450, 555_555_150}},
		{"crash", 1_234_567, []sim.Duration{740_740_200, 864_196_900}},
		{"flapcrash", 1_234_567, []sim.Duration{432_098_450, 555_555_150, 740_740_200, 864_196_900}},
		{"loss", 1_234_567, []sim.Duration{370_370_100, 864_196_900}},
		{"flap", 3*time.Second + 1, []sim.Duration{1_050_000_000_350, 1_052_000_000_350}},
		{"loss", 777_777_777, []sim.Duration{233_333_333_100, 544_444_443_900}},
	} {
		p, err := Preset(tc.name, tc.run)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range p.Events {
			if e.At != tc.want[i] {
				t.Errorf("%s at %v: event %d at %d ps, want %d", tc.name, tc.run, i, int64(e.At), int64(tc.want[i]))
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  time.Duration
		want []time.Duration
	}{
		{"latency", time.Minute, []time.Duration{15 * time.Second, 36 * time.Second}},
		{"errors", time.Minute, []time.Duration{15 * time.Second, 36 * time.Second}},
		{"outage", 1_234_567, []time.Duration{308_641, 740_740}},
		{"drill", time.Minute, []time.Duration{15e9, 15e9, 24e9, 30e9, 36e9, 36e9}},
		{"drill", 777_777_777, []time.Duration{194_444_444, 194_444_444, 311_111_110, 388_888_888, 466_666_666, 466_666_666}},
	} {
		p, err := Preset(tc.name, tc.run)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range p.Events {
			if e.At.Std() != tc.want[i] {
				t.Errorf("%s at %v: event %d at %v, want %v", tc.name, tc.run, i, e.At.Std(), tc.want[i])
			}
		}
	}
	drill, _ := Preset("drill", time.Minute)
	if e := drill.Events[0]; e.Kind != Slow || e.Amount.Std() != 50*time.Millisecond {
		t.Errorf("drill's spike = %+v, want slow 50ms", e)
	}
	if e := drill.Events[2]; e.Kind != Errors || e.Rate != 0.2 {
		t.Errorf("drill's burst = %+v, want errs 0.2", e)
	}
}

// fakeLink and fakeHost record injector calls.
type fakeLink struct {
	log  *[]string
	name string
}

func (f *fakeLink) SetDown(_ *sim.Simulator, down bool) {
	if down {
		*f.log = append(*f.log, f.name+":down")
	} else {
		*f.log = append(*f.log, f.name+":up")
	}
}

func (f *fakeLink) SetLoss(rate float64, rng *rand.Rand) {
	if rng == nil {
		*f.log = append(*f.log, f.name+":loss-nil-rng")
		return
	}
	*f.log = append(*f.log, f.name+":loss")
}

type fakeHost struct{ log *[]string }

func (f *fakeHost) Crash(*sim.Simulator)   { *f.log = append(*f.log, "host:crash") }
func (f *fakeHost) Restart(*sim.Simulator) { *f.log = append(*f.log, "host:restart") }

func TestInjector(t *testing.T) {
	us := sim.Microsecond
	p := &Plan{Events: []Event{
		{At: 3 * us, Kind: HostCrash, Target: "host:0"},
		{At: 1 * us, Kind: LinkDown, Target: "host:0"},
		{At: 2 * us, Kind: LinkUp, Target: "host:0"},
		{At: 2 * us, Kind: LinkLoss, Target: "up-9", Rate: 0.5},
		{At: 4 * us, Kind: HostRestart, Target: "host:0"},
	}}
	var log []string
	in := NewInjector(p, 7)
	// "host:0" binds two links: both must be driven per event.
	in.BindLink("host:0", &fakeLink{log: &log, name: "a"}, &fakeLink{log: &log, name: "b"})
	in.BindLink("up-9", &fakeLink{log: &log, name: "c"})
	in.BindHost(0, &fakeHost{log: &log})
	var events []string
	in.OnEvent = func(s *sim.Simulator, e Event) {
		events = append(events, e.Kind.String()+"@"+e.Target)
	}

	s := sim.New(1)
	if err := in.Schedule(s); err != nil {
		t.Fatal(err)
	}
	s.Run()

	wantLog := []string{"a:down", "b:down", "a:up", "b:up", "c:loss", "host:crash", "host:restart"}
	if strings.Join(log, " ") != strings.Join(wantLog, " ") {
		t.Errorf("log = %v, want %v", log, wantLog)
	}
	wantEvents := []string{"linkdown@host:0", "linkup@host:0", "loss@up-9", "crash@host:0", "restart@host:0"}
	if strings.Join(events, " ") != strings.Join(wantEvents, " ") {
		t.Errorf("events = %v, want %v", events, wantEvents)
	}
}

func TestInjectorUnboundTargets(t *testing.T) {
	s := sim.New(1)
	in := NewInjector(&Plan{Events: []Event{{Kind: LinkDown, Target: "ghost"}}}, 1)
	if err := in.Schedule(s); err == nil {
		t.Error("unbound link scheduled")
	}
	in = NewInjector(&Plan{Events: []Event{{Kind: HostCrash, Target: "host:5"}}}, 1)
	if err := in.Schedule(s); err == nil {
		t.Error("unbound host scheduled")
	}
	// An invalid plan must fail at Schedule even with targets bound.
	in = NewInjector(&Plan{Events: []Event{{At: -1, Kind: LinkDown, Target: "x"}}}, 1)
	in.BindLink("x", &fakeLink{log: new([]string), name: "x"})
	if err := in.Schedule(s); err == nil {
		t.Error("invalid plan scheduled")
	}
}

// TestInjectorRefusesServingKinds: the simulator's binder refuses every
// serving preset (aequitas-sim -faults drill) before scheduling anything,
// naming the first kind it cannot apply.
func TestInjectorRefusesServingKinds(t *testing.T) {
	for _, name := range PresetNames(true) {
		p, err := Preset(name, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		p.Events = append(p.Events, Event{Kind: LinkDown, Target: "x"})
		in := NewInjector(p, 1)
		in.BindLink("x", &fakeLink{log: &log, name: "x"})
		s := sim.New(1)
		err = in.Schedule(s)
		if first := p.Sorted()[1].Kind.String(); err == nil || !strings.Contains(err.Error(), "cannot apply "+first) {
			t.Errorf("%s: Schedule = %v, want a refusal naming %s", name, err, first)
		}
		if s.Run(); len(log) != 0 {
			t.Errorf("%s: refused plan still applied %v", name, log)
		}
	}
}
