package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/obs/flight"
	"aequitas/internal/sim"
	"aequitas/internal/stats"
)

// httpOK is a trivial 200 handler.
func httpOK() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
}

// overloadFlightConfig is an engine tuned to fire within a short test:
// tiny windows, an effectively-zero SLO budget, and no tick throttling.
func overloadFlightConfig(dir string) *FlightConfig {
	return &FlightConfig{
		SampleAdmits: 1,
		TickEvery:    time.Microsecond,
		ProfileDir:   dir,
		Engine: &flight.EngineConfig{
			ShortWindow: 50 * sim.Millisecond,
			LongWindow:  500 * sim.Millisecond,
			SLOBudget:   0.001,
			MinSamples:  10,
		},
	}
}

// TestServeFlightBurnRateTrigger is the serving-side acceptance check:
// synthetic overload against an unmeetable SLO must fire the burn-rate
// trigger, dump the ring, capture profiles, and surface it
// all at /debug/flight.
func TestServeFlightBurnRateTrigger(t *testing.T) {
	dir := t.TempDir()
	var (
		logMu  sync.Mutex
		logged int
	)
	a, err := New(Config{
		Controller: newController(t),
		Flight:     overloadFlightConfig(dir),
		DecisionLog: func(v Verdict) {
			logMu.Lock()
			logged++
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := a.Middleware(httpOK())
	offered := int64(0)
	for i := 0; i < 400; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/backend", nil)
		h.ServeHTTP(rec, req)
		offered++
		if a.FlightTriggered() > 0 {
			break
		}
		// The engine ticks on wall time; let it move.
		time.Sleep(100 * time.Microsecond)
	}
	if a.FlightTriggered() == 0 {
		t.Fatal("burn-rate trigger never fired under sustained SLO misses")
	}
	logMu.Lock()
	if logged == 0 {
		t.Error("DecisionLog hook never invoked")
	}
	logMu.Unlock()

	// Status endpoint reports the trigger.
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/flight status %d", rec.Code)
	}
	var st flightStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("status not JSON: %v\n%s", err, rec.Body.String())
	}
	if st.Schema != flight.Schema || !st.Enabled || st.Triggers == 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.LastTrigger == nil || st.LastTrigger.Kind != "burn_rate" {
		t.Fatalf("last trigger = %+v, want burn_rate", st.LastTrigger)
	}
	if st.LastTrigger.Err != "" {
		t.Fatalf("trigger capture errored: %s", st.LastTrigger.Err)
	}
	if len(st.LastTrigger.Profiles) != 2 {
		t.Fatalf("profiles = %v, want goroutine+heap", st.LastTrigger.Profiles)
	}
	for _, p := range st.LastTrigger.Profiles {
		if filepath.Dir(p) != dir {
			t.Errorf("profile %s not under %s", p, dir)
		}
	}

	// The frozen dump is valid flight NDJSON.
	rec = httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight?format=ndjson&dump=last", nil))
	if rec.Code != 200 {
		t.Fatalf("last dump status %d", rec.Code)
	}
	dumps, records, err := flight.ValidateDump(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("trigger dump invalid: %v", err)
	}
	if dumps != 1 || records == 0 {
		t.Fatalf("trigger dump: %d dumps, %d records", dumps, records)
	}
	if !strings.Contains(rec.Body.String(), `"peer_name":"/backend"`) {
		t.Error("dump records missing resolved peer names")
	}

	// The live dump endpoint works too (manual trigger, no reset).
	rec = httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight?format=ndjson", nil))
	if rec.Code != 200 {
		t.Fatalf("live dump status %d", rec.Code)
	}
	if _, _, err := flight.ValidateDump(bytes.NewReader(rec.Body.Bytes())); err != nil {
		t.Fatalf("live dump invalid: %v", err)
	}
	if !strings.Contains(rec.Body.String(), `"trigger":"manual"`) {
		t.Error("live dump not marked as a manual trigger")
	}
	checkLedger(t, a, offered)
}

// TestServeFlightDisabled checks the zero-config path: no ring attached,
// /debug/flight 404s, DumpFlight errors.
func TestServeFlightDisabled(t *testing.T) {
	a := newAdmission(t, false)
	h := a.Middleware(httpOK())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != 200 {
		t.Fatalf("request status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 404 {
		t.Errorf("/debug/flight without recorder: status %d, want 404", rec.Code)
	}
	var buf bytes.Buffer
	if err := a.DumpFlight(&buf, flight.TriggerFinal, "shutdown"); err == nil {
		t.Error("DumpFlight succeeded without a recorder")
	}
	if a.FlightTriggered() != 0 {
		t.Error("triggers counted without a recorder")
	}
	checkLedger(t, a, 1)
}

// TestServeFlightConcurrent hammers the middleware, the engine tick path
// and the flight endpoints from many goroutines; under -race it is the
// recorder's serving-side data-race check.
func TestServeFlightConcurrent(t *testing.T) {
	a, err := New(Config{Controller: newController(t), Flight: overloadFlightConfig("")})
	if err != nil {
		t.Fatal(err)
	}
	h := a.Middleware(httpOK())
	handler := a.Handler()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/p", nil))
				if i%40 == 0 {
					drec := httptest.NewRecorder()
					handler.ServeHTTP(drec, httptest.NewRequest("GET", "/debug/flight?format=ndjson", nil))
					if _, _, err := flight.ValidateDump(bytes.NewReader(drec.Body.Bytes())); err != nil {
						t.Errorf("concurrent dump invalid: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := a.DumpFlight(&buf, flight.TriggerFinal, "test end"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := flight.ValidateDump(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("final dump invalid: %v", err)
	}
	checkLedger(t, a, workers*200)
}

// TestClassSlotClamp pins the metric-array fold: classes beyond the last
// slot land in the scavenger histogram and negative classes in slot 0 —
// no panic, no silently dropped observation.
func TestClassSlotClamp(t *testing.T) {
	cases := []struct {
		class aequitas.Class
		want  int
	}{
		{aequitas.High, 0},
		{aequitas.Low, 2},
		{aequitas.Class(maxClasses - 1), maxClasses - 1},
		{aequitas.Class(maxClasses), maxClasses - 1},
		{aequitas.Class(127), maxClasses - 1},
		{aequitas.Class(-1), 0},
	}
	for _, c := range cases {
		if got := classSlot(c.class); got != c.want {
			t.Errorf("classSlot(%d) = %d, want %d", c.class, got, c.want)
		}
	}

	// End to end: completions on an out-of-range class must fold into the
	// last histogram rather than panic or vanish.
	a := newAdmission(t, false)
	a.done.complete(aequitas.Class(42), time.Millisecond, 0)
	a.done.complete(aequitas.Class(-3), time.Millisecond, 0)
	last, first := stats.NewHist(), stats.NewHist()
	if !a.done.merge(maxClasses-1, last) || last.N() != 1 {
		t.Error("out-of-range class not folded into the scavenger slot")
	}
	if !a.done.merge(0, first) || first.N() != 1 {
		t.Error("negative class not clamped to slot 0")
	}
}
