package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"aequitas/internal/faults"
	"aequitas/internal/obs/flight"
	"aequitas/internal/sim"
)

// fill calls every Tracer method, recording one event of every kind on t
// in a valid lifecycle order.
func fill(t *Tracer) {
	t.Issue(0, 1, 0, 3, 0, 0, 4096)
	t.Admit(sim.Microsecond, 1, 0, 3, 0, flight.VerdictAdmit, 0.75)
	t.PaceStall(0, 1, sim.Microsecond)
	t.Enqueue(2*sim.Microsecond, 1, 0, 3, 0, 4096)
	t.TailEmit(2*sim.Microsecond, 0, 1)
	t.Hop(3*sim.Microsecond, 0, 1, false, "h0-up", 0, 1500, sim.Microsecond, 3000)
	t.Hop(3*sim.Microsecond, 0, 1, true, "h0-up", 0, 1500, sim.Microsecond, 1500)
	t.Issue(4*sim.Microsecond, 2, 0, 3, 2, 2, 1500)
	t.Drop(4*sim.Microsecond, 2, "sw-down3", 2, 1500)
	t.Lost(0, 2)
	t.Complete(5*sim.Microsecond, 1, 0, 3, 0, 4096, 5*sim.Microsecond)
	t.Fault(6*sim.Microsecond, faults.LinkDown, "h0-up", 0)
	t.Fault(7*sim.Microsecond, faults.LinkLoss, "h0-up", 0.01)
}

func TestNDJSONRoundTrip(t *testing.T) {
	tr := NewTracer(Sinks{Record: true, Attr: NewAttributor(), Audit: NewAuditor(AuditConfig{}), Tails: NewTailTracker()})
	fill(tr)
	if n, m := len(tr.Attr.Records()), tr.InFlight(); n != 1 || m != 0 {
		t.Errorf("%d attribution records and %d RPCs in flight, want 1 and 0", n, m)
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ts, err := summarizeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if ts.Events != int64(tr.Len()) {
		t.Errorf("read %d events, recorded %d", ts.Events, tr.Len())
	}
	// Every line must decode as JSON with exactly the schema's fields.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		kind := m["kind"].(string)
		want := map[string]bool{"ts_us": true, "kind": true, "rpc": true}
		for _, f := range schemaFields[kind] {
			want[f] = true
		}
		for k := range m {
			if !want[k] {
				t.Errorf("line %d (%s): unexpected field %q", i+1, kind, k)
			}
		}
		if len(m) != len(want) {
			t.Errorf("line %d (%s): %d fields, want %d", i+1, kind, len(m), len(want))
		}
	}
}

func TestValidateNDJSONRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":         `{"ts_us":1,`,
		"missing ts":       `{"kind":"issue","rpc":1,"src":0,"dst":1,"prio":0,"class":0,"bytes":1}`,
		"negative ts":      `{"ts_us":-1,"kind":"issue","rpc":1,"src":0,"dst":1,"prio":0,"class":0,"bytes":1}`,
		"unknown kind":     `{"ts_us":1,"kind":"warp","rpc":1}`,
		"missing rpc":      `{"ts_us":1,"kind":"drop","link":"x","class":0,"bytes":1}`,
		"missing field":    `{"ts_us":1,"kind":"issue","rpc":1,"src":0,"dst":1,"prio":0,"class":0}`,
		"wrong type":       `{"ts_us":1,"kind":"drop","rpc":1,"link":7,"class":0,"bytes":1}`,
		"p_admit range":    `{"ts_us":1,"kind":"admit","rpc":1,"src":0,"dst":1,"class":0,"decision":"admit","p_admit":1.5}`,
		"bad decision":     `{"ts_us":1,"kind":"admit","rpc":1,"src":0,"dst":1,"class":0,"decision":"maybe","p_admit":0.5}`,
		"negative resid":   `{"ts_us":1,"kind":"hop","rpc":1,"link":"x","class":0,"bytes":1,"resid_us":-2,"qbytes":0}`,
		"zero rnl":         `{"ts_us":1,"kind":"complete","rpc":1,"src":0,"dst":1,"class":0,"bytes":1,"rnl_us":0}`,
		"bad fault":        `{"ts_us":1,"kind":"fault","rpc":0,"event":"meteor","target":"x","rate":0}`,
		"bad fault rate":   `{"ts_us":1,"kind":"fault","rpc":0,"event":"loss","target":"x","rate":1.5}`,
		"time regression":  "{\"ts_us\":5,\"kind\":\"drop\",\"rpc\":1,\"link\":\"x\",\"class\":0,\"bytes\":1}\n{\"ts_us\":4,\"kind\":\"drop\",\"rpc\":2,\"link\":\"x\",\"class\":0,\"bytes\":1}",
		"fractional class": `{"ts_us":1,"kind":"drop","rpc":1,"link":"x","class":0.5,"bytes":1}`,
		"rnl sum overflows": "{\"ts_us\":1,\"kind\":\"complete\",\"rpc\":1,\"src\":0,\"dst\":1,\"class\":0,\"bytes\":1,\"rnl_us\":1e308}\n" +
			"{\"ts_us\":2,\"kind\":\"complete\",\"rpc\":2,\"src\":0,\"dst\":1,\"class\":0,\"bytes\":1,\"rnl_us\":1e308}",
	}
	for name, in := range cases {
		if _, err := summarizeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// TestTracerHopInTimeOrder: a hop recorded after later events goes in
// after the last event at or before its time.
func TestTracerHopInTimeOrder(t *testing.T) {
	tr := NewTracer(Sinks{Record: true})
	tr.Issue(1, 1, 0, 1, 0, 0, 100)
	tr.Complete(5, 1, 0, 1, 0, 100, 4)
	tr.Hop(5, 0, 1, false, "up-0", 0, 100, 0, 0)
	tr.Hop(1, 0, 1, false, "up-0", 0, 100, 0, 0)
	var got []string
	for _, e := range tr.Events() {
		got = append(got, fmt.Sprint(int64(e.TS), e.Kind))
	}
	if want := []string{"1 issue", "1 hop", "5 complete", "5 hop"}; !slices.Equal(got, want) {
		t.Errorf("events %v, want %v", got, want)
	}
}

// TestNilTracerSafe: a tracer with no sink on is nil, and nil is inert.
func TestNilTracerSafe(t *testing.T) {
	tr := NewTracer(Sinks{})
	fill(tr) // must not panic
	if tr != nil || tr.Len() != 0 || tr.Events() != nil || tr.InFlight() != 0 {
		t.Error("nil tracer not inert")
	}
	if err := tr.WriteNDJSON(nil); err != nil {
		t.Error(err)
	}
}

// TestDisabledTracerAllocs proves the acceptance criterion: with
// observability disabled every event method performs zero allocations.
func TestDisabledTracerAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		fill(tr)
	})
	if allocs != 0 {
		t.Errorf("disabled tracer: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkDisabledTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Hop(sim.Time(i), 0, uint64(i), false, "h0-up", 0, 1500, 0, 0)
	}
}

func BenchmarkEnabledTracerHop(b *testing.B) {
	tr := NewTracer(Sinks{Record: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Hop(sim.Time(i), 0, uint64(i), false, "h0-up", 0, 1500, 0, 0)
	}
}

func TestRegistryWideCSV(t *testing.T) {
	r := NewRegistry()
	tick := 0
	r.Register(func(now sim.Time, emit func(string, float64)) {
		emit("a", float64(tick))
		if tick >= 1 {
			emit("late", 7) // column appears on the second sample
		}
	})
	for ; tick < 3; tick++ {
		r.Sample(sim.Time(tick) * sim.Time(sim.Microsecond))
	}
	if got := r.Columns(); len(got) != 2 || got[0] != "a" || got[1] != "late" {
		t.Fatalf("columns = %v", got)
	}
	if r.Rows() != 3 {
		t.Fatalf("rows = %d", r.Rows())
	}
	if !math.IsNaN(r.Value(0, "late")) {
		t.Error("row 0 'late' should be NaN before the column appeared")
	}
	if v := r.Value(2, "late"); v != 7 {
		t.Errorf("row 2 'late' = %v", v)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t_s,a,late" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// First row's late cell is empty, not "NaN".
	if !strings.HasSuffix(lines[1], ",0,") {
		t.Errorf("row 1 = %q, want empty trailing cell", lines[1])
	}
	if !strings.HasSuffix(lines[3], ",2,7") {
		t.Errorf("row 3 = %q", lines[3])
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Register(func(sim.Time, func(string, float64)) {})
	r.Sample(0)
	if r.Rows() != 0 || r.Columns() != nil || !math.IsNaN(r.Value(0, "x")) {
		t.Error("nil registry not inert")
	}
	if err := r.WriteCSV(nil); err != nil {
		t.Error(err)
	}
}
