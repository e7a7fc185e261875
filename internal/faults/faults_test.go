package faults

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"aequitas/internal/sim"
)

func TestKindNames(t *testing.T) {
	want := map[Kind]string{
		LinkDown: "linkdown", LinkUp: "linkup", LinkLoss: "loss",
		HostCrash: "crash", HostRestart: "restart",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	for _, k := range []Kind{LinkDown, LinkUp, LinkLoss} {
		if !k.IsLink() {
			t.Errorf("%s.IsLink() = false", k)
		}
	}
	for _, k := range []Kind{HostCrash, HostRestart} {
		if k.IsLink() {
			t.Errorf("%s.IsLink() = true", k)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{At: -1, Kind: LinkDown, Link: "up-0"}}},
		{Events: []Event{{Kind: kindCount, Link: "up-0"}}},
		{Events: []Event{{Kind: LinkDown}}},                            // missing link
		{Events: []Event{{Kind: HostCrash, Host: -1}}},                 // bad host
		{Events: []Event{{Kind: LinkLoss, Link: "up-0", Rate: 1.5}}},   // bad rate
		{Events: []Event{{Kind: LinkLoss, Link: "up-0", Rate: -0.01}}}, // bad rate
	}
	for i := range bad {
		if bad[i].Validate() == nil {
			t.Errorf("plan %d validated", i)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	if !nilPlan.Empty() {
		t.Error("nil plan not empty")
	}
}

func TestSortedDoesNotMutate(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 20, Kind: LinkUp, Link: "x"},
		{At: 10, Kind: LinkDown, Link: "x"},
	}}
	s := p.sorted()
	if s[0].At != 10 || s[1].At != 20 {
		t.Errorf("sorted order: %+v", s)
	}
	if p.Events[0].At != 20 {
		t.Error("sorted() mutated the shared plan")
	}
}

func TestWindows(t *testing.T) {
	ms := sim.Duration(sim.FromStd(time.Millisecond))
	p := &Plan{Events: []Event{
		{At: 5 * ms, Kind: HostCrash, Host: 2}, // never restarted
		{At: 1 * ms, Kind: LinkDown, Link: "up-0"},
		{At: 2 * ms, Kind: LinkUp, Link: "up-0"},
		{At: 1 * ms, Kind: LinkLoss, Link: "down-1", Rate: 0.05},
		{At: 3 * ms, Kind: LinkLoss, Link: "down-1", Rate: 0}, // clears
	}}
	ws := p.Windows()
	if len(ws) != 3 {
		t.Fatalf("got %d windows: %+v", len(ws), ws)
	}
	if ws[0].Kind != LinkDown || ws[0].Start != 1*ms || ws[0].End != 2*ms {
		t.Errorf("flap window: %+v", ws[0])
	}
	if ws[1].Kind != LinkLoss || ws[1].End != 3*ms || ws[1].Target != "down-1" {
		t.Errorf("loss window: %+v", ws[1])
	}
	if ws[2].Kind != HostCrash || ws[2].End != sim.Duration(sim.MaxTime) {
		t.Errorf("unclosed crash window: %+v", ws[2])
	}
	if !ws[0].Contains(1*ms, 0) || ws[0].Contains(2*ms, 0) {
		t.Error("Contains is not [start, end)")
	}
	if !ws[0].Contains(2*ms+ms/2, ms) || ws[0].Contains(4*ms, ms) {
		t.Error("Contains margin wrong")
	}
}

func TestParsePlan(t *testing.T) {
	in := `
# flap then crash
1ms linkdown host:1
2ms linkup   host:1   # repair
3ms loss     up-0 0.02
4ms crash    1
5ms restart  host:1
`
	p, err := ParsePlan(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 5 {
		t.Fatalf("got %d events", len(p.Events))
	}
	ms := sim.Duration(sim.FromStd(time.Millisecond))
	want := []Event{
		{At: 1 * ms, Kind: LinkDown, Link: "host:1"},
		{At: 2 * ms, Kind: LinkUp, Link: "host:1"},
		{At: 3 * ms, Kind: LinkLoss, Link: "up-0", Rate: 0.02},
		{At: 4 * ms, Kind: HostCrash, Host: 1},
		{At: 5 * ms, Kind: HostRestart, Host: 1},
	}
	for i, w := range want {
		if p.Events[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, p.Events[i], w)
		}
	}

	for name, bad := range map[string]string{
		"short line":   "1ms linkdown",
		"bad offset":   "xx linkdown up-0",
		"bad event":    "1ms explode up-0",
		"bad host":     "1ms crash up-0",
		"missing rate": "1ms loss up-0",
		"bad rate":     "1ms loss up-0 nope",
		"range rate":   "1ms loss up-0 2.0",
		"nan rate":     "10ms loss host:1 NaN",
		"inf rate":     "10ms loss host:1 +Inf",
	} {
		if _, err := ParsePlan(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := Preset(name, 40*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Empty() {
			t.Errorf("%s: empty", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Every preset window must close before the run ends.
		end := sim.Duration(sim.FromStd(40 * time.Millisecond))
		for _, w := range p.Windows() {
			if w.End > end {
				t.Errorf("%s: window %+v open past the run", name, w)
			}
		}
	}
	if _, err := Preset("nope", time.Millisecond); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := Preset("flap", 0); err == nil {
		t.Error("zero duration accepted")
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
	us := sim.Duration(sim.Microsecond)
	p := &Plan{Events: []Event{
		{At: 3 * us, Kind: HostCrash, Host: 0},
		{At: 1 * us, Kind: LinkDown, Link: "host:0"},
		{At: 2 * us, Kind: LinkUp, Link: "host:0"},
		{At: 2 * us, Kind: LinkLoss, Link: "up-9", Rate: 0.5},
		{At: 4 * us, Kind: HostRestart, Host: 0},
	}}
	var log []string
	in := NewInjector(p, 7)
	// "host:0" binds two links: both must be driven per event.
	in.BindLink("host:0", &fakeLink{log: &log, name: "a"}, &fakeLink{log: &log, name: "b"})
	in.BindLink("up-9", &fakeLink{log: &log, name: "c"})
	in.BindHost(0, &fakeHost{log: &log})
	var events []string
	in.OnEvent = func(s *sim.Simulator, e Event) {
		events = append(events, e.Kind.String()+"@"+e.Target())
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
	in := NewInjector(&Plan{Events: []Event{{Kind: LinkDown, Link: "ghost"}}}, 1)
	if err := in.Schedule(s); err == nil {
		t.Error("unbound link scheduled")
	}
	in = NewInjector(&Plan{Events: []Event{{Kind: HostCrash, Host: 5}}}, 1)
	if err := in.Schedule(s); err == nil {
		t.Error("unbound host scheduled")
	}
	// An invalid plan must fail at Schedule even with targets bound.
	in = NewInjector(&Plan{Events: []Event{{At: -1, Kind: LinkDown, Link: "x"}}}, 1)
	in.BindLink("x", &fakeLink{log: new([]string), name: "x"})
	if err := in.Schedule(s); err == nil {
		t.Error("invalid plan scheduled")
	}
}
