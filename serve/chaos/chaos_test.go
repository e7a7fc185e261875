package chaos

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParsePlan(t *testing.T) {
	src := `
# overload drill
1s slow 20ms
2s errs 0.3
4s quotadown
5s quotaup
6s errs 0
7s slow
`
	p, err := ParsePlan(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 6 {
		t.Fatalf("parsed %d events", len(p.Events))
	}
	want := []Event{
		{At: time.Second, Kind: Slow, Amount: 20 * time.Millisecond},
		{At: 2 * time.Second, Kind: Errors, Rate: 0.3},
		{At: 4 * time.Second, Kind: QuotaDown},
		{At: 5 * time.Second, Kind: QuotaUp},
		{At: 6 * time.Second, Kind: Errors},
		{At: 7 * time.Second, Kind: Slow},
	}
	for i, w := range want {
		if p.Events[i] != w {
			t.Errorf("event %d = %+v, want %+v", i, p.Events[i], w)
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"1s explode",
		"soon slow 2ms",
		"1s errs 1.5",
		"1s errs NaN",
		"1s errs -Inf",
		"1s skew 5ms",
		"1s slow 2ms extra junk",
		"1s",
	} {
		if _, err := ParsePlan(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestWindows(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 1 * time.Second, Kind: Slow, Amount: 20 * time.Millisecond},
		{At: 2 * time.Second, Kind: QuotaDown},
		{At: 3 * time.Second, Kind: Slow},
		{At: 4 * time.Second, Kind: QuotaUp},
		{At: 5 * time.Second, Kind: Errors, Rate: 0.5}, // never cleared
	}}
	ws := p.Windows()
	if len(ws) != 3 {
		t.Fatalf("windows = %+v", ws)
	}
	if ws[0].Kind != Slow || ws[0].Start != time.Second || ws[0].End != 3*time.Second {
		t.Errorf("slow window = %+v", ws[0])
	}
	if ws[1].Kind != QuotaDown || ws[1].End != 4*time.Second {
		t.Errorf("quota window = %+v", ws[1])
	}
	if ws[2].Kind != Errors || ws[2].End < time.Hour {
		t.Errorf("open errors window = %+v", ws[2])
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := Preset(name, time.Minute)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("Preset(%q) invalid: %v", name, err)
		}
		if p.Empty() {
			t.Errorf("Preset(%q) empty", name)
		}
	}
	if _, err := Preset("nope", time.Minute); err == nil {
		t.Error("unknown preset accepted")
	}
}

type fakeQuota struct{ up, down int }

func (f *fakeQuota) SetAvailable(up bool) {
	if up {
		f.up++
	} else {
		f.down++
	}
}

func TestInjectorAdvance(t *testing.T) {
	fq := &fakeQuota{}
	inj := NewInjector(&Plan{Events: []Event{
		{At: 1 * time.Second, Kind: Slow, Amount: 5 * time.Millisecond},
		{At: 1 * time.Second, Kind: QuotaDown},
		{At: 2 * time.Second, Kind: Errors, Rate: 0.4},
		{At: 3 * time.Second, Kind: Slow},
		{At: 3 * time.Second, Kind: QuotaUp},
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
}

func TestInjectorWrapErrors(t *testing.T) {
	inj := NewInjector(&Plan{Events: []Event{
		{At: 0, Kind: Errors, Rate: 1},
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

// FuzzParsePlan: the parser never panics, and a plan it accepts passes
// Validate and pairs into well-formed windows — ordered by start, none
// ending before it starts, at most one open at a time per kind.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"# overload drill\n1s slow 20ms\n2s errs 0.3\n4s quotadown\n5s quotaup\n6s errs 0\n7s slow\n",
		"1s explode", "soon slow 2ms", "1s errs 1.5", "1s errs NaN", "1s slow 2ms extra junk", "1s", "1s skew 5ms",
		"0s errs 1\n0s errs 0.5\n", "3s quotaup\n1s quotadown\n", "-1s slow 1ms", "1s slow -1ms", "1s ERRS 1e-3 # tail",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePlan(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v\n%q", err, src)
		}
		ws := p.Windows()
		lastEnd := map[Kind]time.Duration{}
		for i, w := range ws {
			if w.Start < 0 || w.End < w.Start {
				t.Fatalf("window %d = %+v\n%q", i, w, src)
			}
			if i > 0 && w.Start < ws[i-1].Start {
				t.Fatalf("windows out of order: %+v\n%q", ws, src)
			}
			if end, ok := lastEnd[w.Kind]; ok && w.Start < end {
				t.Fatalf("overlapping %v windows: %+v\n%q", w.Kind, ws, src)
			}
			lastEnd[w.Kind] = w.End
			if w.Kind != Slow && w.Kind != Errors && w.Kind != QuotaDown {
				t.Fatalf("window of kind %v\n%q", w.Kind, src)
			}
		}
		// An accepted plan can be applied to the end without panicking.
		inj := NewInjector(p, nil)
		inj.Advance(time.Duration(1<<63 - 1))
		if !inj.Done() || inj.Applied() != int64(len(p.Events)) {
			t.Fatalf("applied %d of %d events\n%q", inj.Applied(), len(p.Events), src)
		}
	})
}
