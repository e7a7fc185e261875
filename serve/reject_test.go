package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/sim"
)

func doReq(t *testing.T, h http.Handler, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", "/rpc", nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestMiddlewareConfigurableReject(t *testing.T) {
	ctl, clk := newManualController(t)
	clk.SetDraw(2) // force downgrades
	a, err := New(Config{
		Controller:       ctl,
		RejectDowngraded: true,
		RejectStatus:     http.StatusTooManyRequests,
		RetryAfter:       7 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler ran for a rejected request")
	}))
	rec := doReq(t, h, map[string]string{HeaderClass: "high"})
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("code = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), refusals[causeRejected].body) {
		t.Errorf("body = %q", rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q", got)
	}
	checkLedger(t, a, 1)
}

// TestMiddlewareRetryAfterFromIncrementWindow checks the default hint:
// the class's additive-increase window, rounded up to whole seconds —
// an SLO of 3s at the 50th percentile gives a 6s window.
func TestMiddlewareRetryAfterFromIncrementWindow(t *testing.T) {
	clk := &core.ManualClock{}
	clk.SetNow(sim.Time(1))
	clk.SetDraw(2)
	ctl, err := aequitas.NewControllerWithClock(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{{Target: 3 * time.Second, Percentile: 50}},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Controller: ctl, RejectDowngraded: true})
	if err != nil {
		t.Fatal(err)
	}
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	rec := doReq(t, h, map[string]string{HeaderClass: "high"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "6" {
		t.Errorf("Retry-After = %q, want 6", got)
	}
	checkLedger(t, a, 1)
}

func TestMiddlewareDeadlineHeader(t *testing.T) {
	ctl, clk := newManualController(t)
	a, err := New(Config{Controller: ctl, Deadline: &DeadlineConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		clk.SetNow(clk.Now() + sim.Time(50*sim.Millisecond))
	}))
	// Train the floor to ~50ms.
	if rec := doReq(t, h, map[string]string{HeaderClass: "high"}); rec.Code != http.StatusOK {
		t.Fatalf("training request: %d", rec.Code)
	}
	// A 10ms budget cannot cover the 50ms floor.
	rec := doReq(t, h, map[string]string{HeaderClass: "high", HeaderDeadline: "10ms"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("code = %d", rec.Code)
	}
	if rec.Header().Get(HeaderExpired) != "1" {
		t.Error("expired response not marked")
	}
	if !strings.Contains(rec.Body.String(), "deadline budget") {
		t.Errorf("body = %q", rec.Body.String())
	}
	if served != 1 {
		t.Errorf("handler ran %d times", served)
	}
	// A generous budget is served; a malformed header is ignored.
	if rec := doReq(t, h, map[string]string{HeaderClass: "high", HeaderDeadline: "10s"}); rec.Code != http.StatusOK {
		t.Errorf("in-budget request: %d", rec.Code)
	}
	if rec := doReq(t, h, map[string]string{HeaderClass: "high", HeaderDeadline: "soonish"}); rec.Code != http.StatusOK {
		t.Errorf("malformed budget header: %d", rec.Code)
	}
	if cs := ctl.Stats(); cs.Expired != 1 {
		t.Errorf("ctl Expired = %d", cs.Expired)
	}
	checkLedger(t, a, 4)
}
