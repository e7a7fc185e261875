package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/obs"
)

// newController builds a controller whose SLO is impossible to meet, so
// sustained load drives the admit probability to the floor.
func newController(t testing.TB) *aequitas.AdmissionController {
	t.Helper()
	ctl, err := aequitas.NewController(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{
			{Target: time.Nanosecond},
			{Target: time.Nanosecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func newAdmission(t testing.TB, reject bool) *Admission {
	t.Helper()
	a, err := New(Config{Controller: newController(t), RejectDowngraded: reject})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRequiresController(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a nil controller")
	}
}

func TestParseClass(t *testing.T) {
	cases := map[string]aequitas.Class{
		"QoSh": aequitas.High, "high": aequitas.High, "H": aequitas.High, "0": aequitas.High,
		"QoSm": aequitas.Medium, "medium": aequitas.Medium, "1": aequitas.Medium,
		"qosl": aequitas.Low, "Low": aequitas.Low, "2": aequitas.Low,
	}
	for in, want := range cases {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "urgent", "-1", "QoS", "QoS-1"} {
		if _, err := ParseClass(bad); err == nil {
			t.Errorf("ParseClass(%q) accepted", bad)
		}
	}
	// Every name the layer writes into HeaderClass reads back.
	for c := aequitas.Class(0); c <= 255; c++ {
		if got, err := ParseClass(c.String()); err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
}

// TestServeOverloadSmoke is the end-to-end serving smoke: mixed-class load
// through the middleware on the wall clock, with an unmeetable SLO, must
// produce downgrades marked on the response, the exported metrics must
// be valid Prometheus text, and the pprof index must answer.
func TestServeOverloadSmoke(t *testing.T) {
	a := newAdmission(t, false)
	var handled int
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := ParseClass(headerValue(w.Header(), HeaderClass)); err != nil {
			t.Error("verdict missing from the response headers")
		}
		handled++
		w.WriteHeader(http.StatusOK)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	downgraded := 0
	classes := []string{"QoSh", "QoSm"}
	for i := 0; i < 600; i++ {
		req, _ := http.NewRequest("GET", srv.URL+"/backend", nil)
		req.Header.Set(HeaderClass, classes[i%len(classes)])
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if resp.Header.Get(HeaderDowngraded) == "1" {
			downgraded++
			if got := resp.Header.Get(HeaderClass); got != aequitas.Low.String() {
				t.Fatalf("downgraded request ran on %q, want %v", got, aequitas.Low)
			}
		}
	}
	if handled != 600 {
		t.Errorf("handled %d of 600 requests", handled)
	}
	if downgraded == 0 {
		t.Error("no downgrades under sustained overload of an unmeetable SLO")
	}

	// The exported metrics must be valid Prometheus text and reflect the
	// load just served.
	msrv := httptest.NewServer(a.Handler())
	defer msrv.Close()
	resp, err := http.Get(msrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := obs.ValidatePromText(resp.Body)
	if err != nil {
		t.Fatalf("invalid Prometheus exposition: %v", err)
	}
	if n == 0 {
		t.Error("no metric samples exported")
	}

	sresp, err := http.Get(msrv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != obs.SnapshotSchema {
		t.Errorf("snapshot schema %q", snap.Schema)
	}
	counters := map[string]float64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["serve_completed"] != 600 {
		t.Errorf("serve_completed = %v, want 600", counters["serve_completed"])
	}
	if counters["serve_downgraded"] != float64(downgraded) {
		t.Errorf("serve_downgraded = %v, want %d", counters["serve_downgraded"], downgraded)
	}
	if counters["ctl_slo_misses"] == 0 {
		t.Error("no SLO misses recorded despite unmeetable SLO")
	}
	hasPadmit := false
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "padmit.") {
			hasPadmit = true
			if g.Value < 0 || g.Value > 1 {
				t.Errorf("gauge %s = %v out of [0, 1]", g.Name, g.Value)
			}
		}
	}
	if !hasPadmit {
		t.Error("no live admit-probability gauges exported")
	}

	// The pprof mux responds (index page).
	presp, err := http.Get(msrv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if body, err := io.ReadAll(presp.Body); err != nil || presp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("pprof")) {
		t.Errorf("/debug/pprof/: status %d, %v: served no pprof index", presp.StatusCode, err)
	}
	checkLedger(t, a, 600)
}

func TestMiddlewareReject(t *testing.T) {
	a := newAdmission(t, true)
	// Crush the admit probability directly.
	for i := 0; i < 300; i++ {
		a.Controller().Observe("/x", aequitas.High, time.Second, 1)
	}
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	rejected := 0
	for i := 0; i < 100; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/x", nil)
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusServiceUnavailable {
			rejected++
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
		}
	}
	if rejected == 0 {
		t.Error("no rejections at floor admit probability with RejectDowngraded")
	}
	if a.outcome(causeRejected) != int64(rejected) {
		t.Errorf("rejected counter %d, want %d", a.outcome(causeRejected), rejected)
	}
	checkLedger(t, a, 100)
}

func TestUnaryInterceptor(t *testing.T) {
	a := newAdmission(t, false)
	icpt := a.UnaryInterceptor(nil)
	called := false
	resp, err := icpt(context.Background(), "ping", &UnaryServerInfo{FullMethod: "/svc/Get"},
		func(ctx context.Context, req any) (any, error) {
			called = true
			v, ok := FromContext(ctx)
			if !ok {
				t.Error("verdict missing from interceptor context")
			}
			if v.Request.Peer != "/svc/Get" {
				t.Errorf("peer %q, want method name", v.Request.Peer)
			}
			return "pong", nil
		})
	if err != nil || resp != "pong" || !called {
		t.Fatalf("interceptor: resp=%v err=%v called=%v", resp, err, called)
	}
	checkLedger(t, a, 1)
}

func TestUnaryInterceptorReject(t *testing.T) {
	a := newAdmission(t, true)
	for i := 0; i < 300; i++ {
		a.Controller().Observe("/svc/Get", aequitas.High, time.Second, 1)
	}
	icpt := a.UnaryInterceptor(nil)
	rejections := 0
	for i := 0; i < 100; i++ {
		_, err := icpt(context.Background(), nil, &UnaryServerInfo{FullMethod: "/svc/Get"},
			func(ctx context.Context, req any) (any, error) { return nil, nil })
		if err == ErrRejected {
			rejections++
		}
	}
	if rejections == 0 {
		t.Error("interceptor never rejected at floor admit probability")
	}
	checkLedger(t, a, 100)
}

// TestServeConcurrent hammers the middleware and the metrics endpoint from
// many goroutines; run under -race it is the serving path's data-race
// check.
func TestServeConcurrent(t *testing.T) {
	a := newAdmission(t, false)
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	metrics := a.Handler()
	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			peers := []string{"/a", "/b", "/c"}
			classes := []string{"QoSh", "QoSm", "QoSl"}
			for i := 0; i < perWorker; i++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("GET", peers[(w+i)%len(peers)], nil)
				req.Header.Set(HeaderClass, classes[i%len(classes)])
				h.ServeHTTP(rec, req)
				if i%50 == 0 {
					mrec := httptest.NewRecorder()
					metrics.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
					if _, err := obs.ValidatePromText(mrec.Body); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := a.outcome(causeAdmitted) + a.outcome(causeDowngraded) + a.outcome(causeRejected)
	if total != workers*perWorker {
		t.Errorf("decision counters sum to %d, want %d", total, workers*perWorker)
	}
	if snapCounter(a, "serve_completed") != workers*perWorker {
		t.Errorf("completions %d, want %d", snapCounter(a, "serve_completed"), workers*perWorker)
	}
	checkLedger(t, a, workers*perWorker)
}
