package serve_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/sim"
	"aequitas/serve"
)

// nopWriter is a ResponseWriter that allocates nothing.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (nopWriter) WriteHeader(int)               {}

// TestMiddlewareAllocsFromOutside pins a served request at zero
// allocations when Middleware is called from another package, as every
// server and the benchmark call it. TestRequestPathAllocs counts the
// same path from inside serve; the two can differ because Middleware
// inlines into its caller, and its closure is compiled in the caller's
// package.
func TestMiddlewareAllocsFromOutside(t *testing.T) {
	clk := &core.ManualClock{}
	clk.SetNow(sim.Time(1))
	ctl, err := aequitas.NewControllerWithClock(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{{Target: time.Millisecond}},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	a, err := serve.New(serve.Config{Controller: ctl})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if w.Header().Get(serve.HeaderClass) == "QoSh" {
			served++
		}
	}))
	req := httptest.NewRequest("GET", "/backend", nil)
	req.Header.Set(serve.HeaderClass, "QoSh")
	// Converted once: boxing a writer per call would be counted.
	var w http.ResponseWriter = nopWriter{h: make(http.Header)}
	const warm, runs = 32, 200
	for i := 0; i < warm; i++ {
		h.ServeHTTP(w, req)
	}
	// AllocsPerRun calls f once more than it counts.
	if got := testing.AllocsPerRun(runs, func() { h.ServeHTTP(w, req) }); got != 0 || served != warm+runs+1 {
		t.Errorf("%v allocs per served request (want 0); %d of %d requests admitted", got, served, warm+runs+1)
	}
}
