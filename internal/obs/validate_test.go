package obs

import (
	"fmt"
	"strings"
	"testing"

	"aequitas/internal/sim"
)

// TestValidateNDJSONLineNumbers proves errors report the physical line
// number — counting blank lines — and name the offending field, so a
// reported position matches what an editor shows.
func TestValidateNDJSONLineNumbers(t *testing.T) {
	in := strings.Join([]string{
		`{"ts_us":1,"kind":"drop","rpc":1,"link":"x","class":0,"bytes":1}`,
		``, // blank line: skipped but still counted
		`{"ts_us":2,"kind":"drop","rpc":2,"link":"x","class":0,"bytes":1}`,
		`{"ts_us":3,"kind":"drop","rpc":3,"class":0,"bytes":1}`, // missing link
		`{"ts_us":4,"kind":"drop","rpc":4,"link":"x","class":0,"bytes":1}`,
	}, "\n")
	_, err := summarizeTrace(strings.NewReader(in))
	if err == nil {
		t.Fatal("malformed mid-file line validated")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 4") {
		t.Errorf("error %q does not name physical line 4", msg)
	}
	if !strings.Contains(msg, `"link"`) {
		t.Errorf("error %q does not name the offending field", msg)
	}
}

// TestValidateNDJSONErrorsNameField checks every rejection path names the
// field it tripped on.
func TestValidateNDJSONErrorsNameField(t *testing.T) {
	cases := map[string]struct{ in, field string }{
		"missing ts":     {`{"kind":"issue","rpc":1,"src":0,"dst":1,"prio":0,"class":0,"bytes":1}`, "ts_us"},
		"regression":     {"{\"ts_us\":5,\"kind\":\"drop\",\"rpc\":1,\"link\":\"x\",\"class\":0,\"bytes\":1}\n{\"ts_us\":4,\"kind\":\"drop\",\"rpc\":2,\"link\":\"x\",\"class\":0,\"bytes\":1}", "ts_us"},
		"missing kind":   {`{"ts_us":1,"rpc":1}`, "kind"},
		"unknown kind":   {`{"ts_us":1,"kind":"warp","rpc":1}`, "kind"},
		"missing rpc":    {`{"ts_us":1,"kind":"drop","link":"x","class":0,"bytes":1}`, "rpc"},
		"wrong type":     {`{"ts_us":1,"kind":"drop","rpc":1,"link":7,"class":0,"bytes":1}`, "link"},
		"p_admit range":  {`{"ts_us":1,"kind":"admit","rpc":1,"src":0,"dst":1,"class":0,"decision":"admit","p_admit":1.5}`, "p_admit"},
		"bad decision":   {`{"ts_us":1,"kind":"admit","rpc":1,"src":0,"dst":1,"class":0,"decision":"maybe","p_admit":0.5}`, "decision"},
		"negative resid": {`{"ts_us":1,"kind":"hop","rpc":1,"link":"x","class":0,"bytes":1,"resid_us":-2,"qbytes":0}`, "resid_us"},
		"zero rnl":       {`{"ts_us":1,"kind":"complete","rpc":1,"src":0,"dst":1,"class":0,"bytes":1,"rnl_us":0}`, "rnl_us"},
	}
	for name, tc := range cases {
		_, err := summarizeTrace(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: validated", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name field %q", name, err, tc.field)
		}
	}
}

func TestValidateMetricsCSV(t *testing.T) {
	good := "t_s,q.up-0.bytes,drop.up-0.pkts\n0.000000000,12,0\n0.000100000,,1\n0.000200000,3,1\n"
	ms, err := summarizeMetrics(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid csv rejected: %v", err)
	}
	if ms.Rows != 3 {
		t.Errorf("rows = %d, want 3", ms.Rows)
	}
}

func TestValidateMetricsCSVRejects(t *testing.T) {
	cases := map[string]struct{ in, want string }{
		"empty":          {"", "no header"},
		"bad first col":  {"time,q.a\n", `"t_s"`},
		"empty name":     {"t_s,,q.a\n", "column 2"},
		"duplicate":      {"t_s,q.a,q.a\n", "duplicate"},
		"unknown family": {"t_s,latency.a\n", "family"},
		"field count":    {"t_s,q.a\n1,2,3\n", "fields"},
		"bad t_s":        {"t_s,q.a\nnope,2\n", `"t_s"`},
		"non-monotonic":  {"t_s,q.a\n2,1\n1,1\n", "before previous"},
		"bad cell":       {"t_s,q.a\n1,x\n", `"q.a"`},
		"infinite cell":  {"t_s,q.a\n1,Inf\n", `"q.a"`},
		"NaN t_s":        {"t_s,q.a\nNaN,1\n", `"t_s"`},
		"sum overflows":  {"t_s,q.a\n1,1e308\n2,1e308\n", `"q.a"`},
	}
	for name, tc := range cases {
		_, err := summarizeMetrics(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: validated", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", name, err, tc.want)
		}
	}
}

// TestValidateMetricsCSVRoundTrip feeds a registry's own output through
// the reader, with columns drawn from the real metric families.
func TestValidateMetricsCSVRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Register(func(now sim.Time, emit func(string, float64)) {
		emit("q.up-0.bytes", 100)
		emit("padmit.d1.c0", 0.5)
		if now > 0 {
			emit("srtt_us.0-1", 12.25) // late column: earlier cells empty
		}
	})
	for i := 0; i < 3; i++ {
		r.Sample(sim.Time(i) * sim.Time(sim.Microsecond))
	}
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	ms, err := summarizeMetrics(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("registry output rejected: %v", err)
	}
	if ms.Rows != r.Rows() {
		t.Errorf("read %d rows, registry has %d", ms.Rows, r.Rows())
	}
}

// registryWithColumns builds a registry whose samples carry n columns,
// sampled once so every column exists.
func registryWithColumns(n int) *Registry {
	r := NewRegistry()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("q.link-%d.bytes", i)
	}
	r.Register(func(now sim.Time, emit func(string, float64)) {
		for i, name := range names {
			emit(name, float64(i))
		}
	})
	r.Sample(0)
	return r
}

// TestRegistryValueAllocs pins Value's column lookup at zero allocations:
// the name→index map is built during sampling, so queries are a single
// map hit, never a scan or an allocation.
func TestRegistryValueAllocs(t *testing.T) {
	r := registryWithColumns(64)
	allocs := testing.AllocsPerRun(1000, func() {
		if v := r.Value(0, "q.link-63.bytes"); v != 63 {
			t.Fatalf("value = %v", v)
		}
	})
	if allocs != 0 {
		t.Errorf("Registry.Value: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkRegistryValue pins the lookup cost on a wide registry (the
// per-port metrics of a large fabric produce hundreds of columns).
func BenchmarkRegistryValue(b *testing.B) {
	r := registryWithColumns(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Value(0, "q.link-511.bytes")
	}
}
