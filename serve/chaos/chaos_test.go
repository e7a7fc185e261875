package chaos

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"aequitas/internal/faults"
	"aequitas/internal/sim"
)

type fakeQuota struct{ up, down int }

func (f *fakeQuota) SetAvailable(up bool) {
	if up {
		f.up++
	} else {
		f.down++
	}
}

func mustInjector(t testing.TB, plan *faults.Plan, q QuotaPlane) *Injector {
	t.Helper()
	inj, err := NewInjector(plan, q)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestInjectorAdvance(t *testing.T) {
	fq := &fakeQuota{}
	inj := mustInjector(t, &faults.Plan{Events: []faults.Event{
		{At: 3 * sim.Second, Kind: faults.Slow},
		{At: 1 * sim.Second, Kind: faults.Slow, Amount: 5 * sim.Millisecond},
		{At: 1 * sim.Second, Kind: faults.QuotaDown},
		{At: 2 * sim.Second, Kind: faults.Errors, Rate: 0.4},
		{At: 3 * sim.Second, Kind: faults.QuotaUp},
	}}, fq)
	inj.Advance(500 * time.Millisecond)
	if inj.ExtraLatency() != 0 || fq.down != 0 {
		t.Error("events applied early")
	}
	inj.Advance(1 * time.Second)
	if inj.ExtraLatency() != 5*time.Millisecond || fq.down != 1 {
		t.Errorf("at 1s: extra=%v down=%d", inj.ExtraLatency(), fq.down)
	}
	inj.Advance(2500 * time.Millisecond)
	if inj.ErrorRate() != 0.4 {
		t.Errorf("at 2.5s: rate=%v", inj.ErrorRate())
	}
	if inj.Done() {
		t.Error("Done before the last event")
	}
	inj.Advance(10 * time.Second)
	if inj.ExtraLatency() != 0 || fq.up != 1 || !inj.Done() {
		t.Errorf("at end: extra=%v up=%d done=%v", inj.ExtraLatency(), fq.up, inj.Done())
	}
	if inj.Applied() != 5 {
		t.Errorf("Applied = %d", inj.Applied())
	}
	// The nil plan is the inert injector.
	if inj := mustInjector(t, nil, nil); !inj.Done() || inj.Applied() != 0 {
		t.Error("nil plan is not inert")
	}
}

func TestInjectorWrapErrors(t *testing.T) {
	inj := mustInjector(t, &faults.Plan{Events: []faults.Event{
		{At: 0, Kind: faults.Errors, Rate: 1},
	}}, nil)
	inj.Advance(0)
	h := inj.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler ran during a rate-1 error burst")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("code = %d", rec.Code)
	}
}

// TestParsePlan: a plan file reaches the injector with its units intact
// (the grammar holds picoseconds, the request path nanoseconds), and a
// file that mixes in a simulator line is refused whole, naming the kind.
func TestParsePlan(t *testing.T) {
	parse := func(src string) *faults.Plan {
		p, err := faults.ParsePlan(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fq := &fakeQuota{}
	inj := mustInjector(t, parse("1s slow 20ms\n2s errs 0.3\n4s quotadown\n5s quotaup\n6s errs 0\n7s slow\n"), fq)
	inj.Advance(4 * time.Second)
	if inj.ExtraLatency() != 20*time.Millisecond || inj.ErrorRate() != 0.3 || fq.down != 1 || inj.Applied() != 3 {
		t.Errorf("at 4s: extra=%v rate=%v down=%d applied=%d", inj.ExtraLatency(), inj.ErrorRate(), fq.down, inj.Applied())
	}
	inj.Advance(time.Minute)
	if inj.ExtraLatency() != 0 || inj.ErrorRate() != 0 || fq.up != 1 || !inj.Done() {
		t.Errorf("at end: extra=%v rate=%v up=%d", inj.ExtraLatency(), inj.ErrorRate(), fq.up)
	}

	fq = &fakeQuota{}
	_, err := NewInjector(parse("1s quotadown\n2s loss host:1 0.5\n3s crash 1\n"), fq)
	if err == nil || !strings.Contains(err.Error(), "cannot apply loss") || fq.down != 0 {
		t.Errorf("mixed plan: err = %v, quota downs = %d", err, fq.down)
	}
	if _, err := NewInjector(&faults.Plan{Events: []faults.Event{{Kind: faults.Slow, Amount: -1}}}, nil); err == nil {
		t.Error("invalid plan bound")
	}
}

// TestPresets: every serving preset binds and applies to its end; every
// simulator preset (aequitas-serve -chaos flap) is refused, naming the
// first kind the live server cannot apply.
func TestPresets(t *testing.T) {
	for _, name := range faults.PresetNames(true) {
		p, err := faults.Preset(name, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		inj := mustInjector(t, p, &fakeQuota{})
		inj.Advance(time.Minute)
		if !inj.Done() || inj.ExtraLatency() != 0 || inj.ErrorRate() != 0 {
			t.Errorf("%s: done=%v extra=%v rate=%v after the run", name, inj.Done(), inj.ExtraLatency(), inj.ErrorRate())
		}
	}
	for _, name := range faults.PresetNames(false) {
		p, err := faults.Preset(name, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewInjector(p, nil)
		if first := p.Events[0].Kind.String(); err == nil || !strings.Contains(err.Error(), "cannot apply "+first) {
			t.Errorf("%s: NewInjector = %v, want a refusal naming %s", name, err, first)
		}
	}
}

// TestWindows: what the injector has applied at any instant is what the
// plan's windows say is active then — the window rule and the binder
// agree, including a level re-set inside an open window.
func TestWindows(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{At: 1 * sim.Second, Kind: faults.Slow, Amount: 20 * sim.Millisecond},
		{At: 2 * sim.Second, Kind: faults.QuotaDown},
		{At: 2 * sim.Second, Kind: faults.Slow, Amount: 30 * sim.Millisecond},
		{At: 3 * sim.Second, Kind: faults.Slow},
		{At: 4 * sim.Second, Kind: faults.QuotaUp},
		{At: 5 * sim.Second, Kind: faults.Errors, Rate: 0.5}, // never cleared
	}}
	fq := &fakeQuota{}
	inj := mustInjector(t, plan, fq)
	for at := time.Duration(0); at <= 6*time.Second; at += 500 * time.Millisecond {
		inj.Advance(at)
		active := map[faults.Kind]bool{}
		for _, w := range plan.Windows() {
			if w.Contains(sim.FromStd(at), 0) {
				active[w.Kind] = true
			}
		}
		got := map[faults.Kind]bool{}
		if inj.ExtraLatency() > 0 {
			got[faults.Slow] = true
		}
		if inj.ErrorRate() > 0 {
			got[faults.Errors] = true
		}
		if fq.down > fq.up {
			got[faults.QuotaDown] = true
		}
		for _, k := range []faults.Kind{faults.Slow, faults.Errors, faults.QuotaDown} {
			if got[k] != active[k] {
				t.Errorf("at %v: %s applied=%v, window says %v", at, k, got[k], active[k])
			}
		}
	}
}

type nopTarget struct{}

func (nopTarget) SetDown(*sim.Simulator, bool) {}
func (nopTarget) SetLoss(float64, *rand.Rand)  {}
func (nopTarget) Crash(*sim.Simulator)         {}
func (nopTarget) Restart(*sim.Simulator)       {}
func simulatorAccepts(e faults.Event) bool {
	in := faults.NewInjector(&faults.Plan{Events: []faults.Event{e}}, 1)
	in.BindLink(e.Target, nopTarget{})
	if id, err := strconv.Atoi(strings.TrimPrefix(e.Target, "host:")); err == nil {
		in.BindHost(id, nopTarget{})
	}
	return in.Schedule(sim.New(1)) == nil
}

// FuzzParsePlan fuzzes the one plan grammar (faults.ParsePlan) from the
// package that can build both binders: the parser never panics; a plan it
// accepts passes Validate and pairs into well-formed windows — ordered by
// start, none ending before it starts, at most one open at a time per
// (kind, target), each of an onset kind; every event is accepted by
// exactly one binder; and an all-serving plan applies to its end.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		// serve/chaos' former corpus
		"# overload drill\n1s slow 20ms\n2s errs 0.3\n4s quotadown\n5s quotaup\n6s errs 0\n7s slow\n",
		"1s explode", "soon slow 2ms", "1s errs 1.5", "1s errs NaN", "1s slow 2ms extra junk", "1s", "1s skew 5ms",
		"0s errs 1\n0s errs 0.5\n", "3s quotaup\n1s quotadown\n", "-1s slow 1ms", "1s slow -1ms", "1s ERRS 1e-3 # tail",
		// internal/faults' tables
		"# flap then crash\n1ms linkdown host:1\n2ms linkup   host:1   # repair\n3ms loss     up-0 0.02\n4ms crash    1\n5ms restart  host:1\n",
		"1ms linkdown", "xx linkdown up-0", "1ms explode up-0", "1ms crash up-0", "1ms loss up-0", "1ms loss up-0 nope",
		"1ms loss up-0 2.0", "10ms loss host:1 NaN", "10ms loss host:1 +Inf", "1ms linkdown up-0 junk more junk", "1ms crash host:1 0.5",
		"1ms loss a 0.1\n2ms loss a 0.2\n2ms loss b 1\n3ms loss a 0\n1ms linkup a\n", "1ms crash host:-1", "1ms LINKDOWN Host:1\n1s quotadown",
		// offsets that used to wrap the picosecond clock
		"5125h linkdown up-0", "2562047h linkdown up-0", "-2562047h slow 1ms", "1s slow 5125h", "2562h errs 1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := faults.ParsePlan(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v\n%q", err, src)
		}
		type key struct {
			kind   faults.Kind
			target string
		}
		ws := p.Windows()
		lastEnd := map[key]sim.Duration{}
		for i, w := range ws {
			if w.Start < 0 || w.End < w.Start {
				t.Fatalf("window %d = %+v\n%q", i, w, src)
			}
			if i > 0 && w.Start < ws[i-1].Start {
				t.Fatalf("windows out of order: %+v\n%q", ws, src)
			}
			k := key{w.Kind, w.Target}
			if end, ok := lastEnd[k]; ok && w.Start < end {
				t.Fatalf("overlapping %v windows: %+v\n%q", w.Kind, ws, src)
			}
			lastEnd[k] = w.End
			if !(faults.Event{Kind: w.Kind, Target: w.Target, Rate: 1, Amount: 1}).Onset() {
				t.Fatalf("window of kind %v\n%q", w.Kind, src)
			}
		}
		serving := 0
		for _, e := range p.Events {
			_, err := NewInjector(&faults.Plan{Events: []faults.Event{e}}, nil)
			if (err == nil) == simulatorAccepts(e) {
				t.Fatalf("%+v: live server accepts=%v, simulator accepts=%v\n%q", e, err == nil, err != nil, src)
			}
			if err == nil {
				serving++
			}
		}
		// An all-serving plan can be applied to the end; any other is refused.
		inj, err := NewInjector(p, nil)
		if serving != len(p.Events) {
			if err == nil {
				t.Fatalf("plan with %d simulator events bound\n%q", len(p.Events)-serving, src)
			}
			return
		}
		if err != nil {
			t.Fatalf("all-serving plan refused: %v\n%q", err, src)
		}
		inj.Advance(time.Duration(1<<63 - 1))
		if !inj.Done() || inj.Applied() != int64(len(p.Events)) {
			t.Fatalf("applied %d of %d events\n%q", inj.Applied(), len(p.Events), src)
		}
	})
}
