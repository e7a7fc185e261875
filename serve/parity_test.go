package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/obs"
	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// scriptStep is one request of the scripted scenario: when it arrives on
// the manual clock, what it asks for, what every draw returns while it is
// decided, and how long its handler takes if it runs.
type scriptStep struct {
	name      string
	at        time.Duration
	class     aequitas.Class
	draw      float64
	budget    time.Duration // 0: the request carries none
	work      time.Duration
	quotaDown bool // decided under a fail-closed quota whose plane is down
	ran       bool // whether the handler must run (with RejectDowngraded off)
}

// script covers every outcome begin can produce. The SLO is 10 ms and so
// is the brownout threshold, with one-second windows that step after one
// window either way: the 20 ms handlers are SLO misses and slow
// completions, and each "climb" step closes an all-slow window.
var script = []scriptStep{
	{name: "admit", at: 0, draw: 0, work: 20 * time.Millisecond, ran: true},
	{name: "downgrade", at: 100 * time.Millisecond, draw: 2, work: 20 * time.Millisecond, ran: true},
	{name: "expired by MinBudget", at: 200 * time.Millisecond, budget: time.Millisecond},
	{name: "expired by learned floor", at: 300 * time.Millisecond, budget: 15 * time.Millisecond},
	{name: "budget covers the floor", at: 400 * time.Millisecond, budget: 10 * time.Second, work: 20 * time.Millisecond, ran: true},
	{name: "climb to thin-scavenger", at: 1100 * time.Millisecond, work: 20 * time.Millisecond, ran: true},
	{name: "scavenger thinned", at: 1200 * time.Millisecond, class: aequitas.Low},
	{name: "downgrade thinned", at: 1300 * time.Millisecond, draw: 2},
	{name: "climb to tighten", at: 2200 * time.Millisecond, work: 20 * time.Millisecond, ran: true},
	{name: "tightened", at: 2300 * time.Millisecond, draw: 0.7},
	{name: "survives tightening", at: 2400 * time.Millisecond, draw: 0.3, work: 20 * time.Millisecond, ran: true},
	{name: "climb to hard-shed", at: 3300 * time.Millisecond, work: 20 * time.Millisecond, ran: true},
	{name: "hard shed", at: 3400 * time.Millisecond, draw: 0.7},
	{name: "kept through hard shed", at: 3500 * time.Millisecond, draw: 0.01, work: time.Millisecond, ran: true},
	{name: "quota fail-closed drop", at: 3600 * time.Millisecond, draw: 0.01, quotaDown: true},
	{name: "step down", at: 4500 * time.Millisecond, draw: 0.01, work: time.Millisecond, ran: true},
}

// scriptRun is what one pass of the script through one adapter leaves
// behind. Everything but wire must be identical between the adapters.
type scriptRun struct {
	decisions []string // DecisionLog, one line per verdict
	ran       []bool
	levels    []int32
	counters  map[string]int64
	metrics   string // /metrics and /snapshot with the wall-clock age zeroed
	flight    string // /debug/flight status, the ring, the last trigger dump
	wire      []string
}

// countingClock counts the reads of the clock it wraps.
type countingClock struct {
	core.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() sim.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

// runScript plays the script through the middleware (viaHTTP) or the
// interceptor on a fresh manual clock and a fully hardened layer.
func runScript(t *testing.T, viaHTTP, reject bool) scriptRun {
	t.Helper()
	clk := &core.ManualClock{}
	epoch := sim.Time(1)
	clk.SetNow(epoch)
	ctl, err := aequitas.NewControllerWithClock(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{{Target: 10 * time.Millisecond}, {Target: 10 * time.Millisecond}},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	var run scriptRun
	a, err := New(Config{
		Controller:       ctl,
		RejectDowngraded: reject,
		DecisionLog:      func(v Verdict) { run.decisions = append(run.decisions, fmt.Sprintf("%+v", v)) },
		Deadline:         &DeadlineConfig{MinBudget: 2 * time.Millisecond},
		Brownout: &BrownoutConfig{
			LatencyThreshold: 10 * time.Millisecond,
			Window:           time.Second,
			StepUpAfter:      1,
			StepDownAfter:    1,
		},
		Flight: &FlightConfig{
			SampleAdmits: 1,
			Engine:       &flight.EngineConfig{MinSamples: 1, SLOBudget: 0.001},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	quota := core.NewQuotaServer(map[qos.Class]float64{qos.High: 1e9})
	if err := quota.Grant("tenant", qos.High, 1e9); err != nil {
		t.Fatal(err)
	}
	quota.SetAvailable(false)
	downClient := quota.ClientWithClock("tenant", clk)

	var cur *scriptStep
	handlerRan := false
	work := func() {
		handlerRan = true
		clk.SetNow(clk.Now() + sim.FromStd(cur.work))
	}
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := ParseClass(headerValue(w.Header(), HeaderClass)); err != nil {
			t.Error("verdict missing from the response headers")
		}
		work()
	}))
	icpt := a.UnaryInterceptor(func(_ context.Context, info *UnaryServerInfo, req any) Request {
		return Request{Peer: info.FullMethod, Class: req.(aequitas.Class)}
	})
	offered := int64(0)
	for i := range script {
		cur = &script[i]
		clk.SetNow(epoch + sim.FromStd(cur.at))
		clk.SetDraw(cur.draw)
		if cur.quotaDown {
			ctl.SetQuota(downClient, core.QuotaFailClosed)
		}
		handlerRan = false
		if viaHTTP {
			req := httptest.NewRequest("GET", "/rpc", nil)
			req.Header.Set(HeaderClass, cur.class.String())
			if cur.budget > 0 {
				req.Header.Set(HeaderDeadline, cur.budget.String())
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var hdr []string
			for k, v := range rec.Header() {
				hdr = append(hdr, k+"="+strings.Join(v, ","))
			}
			sort.Strings(hdr)
			run.wire = append(run.wire, fmt.Sprintf("%d %v %q", rec.Code, hdr, rec.Body.String()))
		} else {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if cur.budget > 0 {
				ctx, cancel = context.WithTimeout(ctx, cur.budget)
			}
			_, err := icpt(ctx, cur.class, &UnaryServerInfo{FullMethod: "/rpc"},
				func(ctx context.Context, _ any) (any, error) {
					if _, ok := FromContext(ctx); !ok {
						t.Error("verdict missing from handler context")
					}
					work()
					return nil, nil
				})
			cancel()
			run.wire = append(run.wire, fmt.Sprint(err))
		}
		offered++
		if cur.quotaDown {
			ctl.SetQuota(nil, core.QuotaFailOpen)
		}
		want := cur.ran && !(reject && cur.name == "downgrade")
		if handlerRan != want {
			t.Errorf("step %q: handler ran = %v, want %v (%s)", cur.name, handlerRan, want, run.wire[i])
		}
		run.ran = append(run.ran, handlerRan)
		run.levels = append(run.levels, a.BrownoutLevel())
	}
	checkLedger(t, a, offered)
	run.counters = snapCounters(a)

	snap := a.Snapshot()
	snap.SimTimeS = 0
	var mb bytes.Buffer
	if err := obs.WriteProm(&mb, snap); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	run.metrics = mb.String() + string(js)

	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	var st flightStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.LastTrigger != nil {
		st.LastTrigger.WallTime = ""
	}
	stJSON, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	fmt.Fprintf(&fb, "%s\n", stJSON)
	if err := a.DumpFlight(&fb, flight.TriggerFinal, "script end"); err != nil {
		t.Fatal(err)
	}
	tr, dump, _ := a.LastFlightDump()
	fmt.Fprintf(&fb, "%+v\n%s", tr, dump)
	run.flight = fb.String()
	return run
}

// TestAdapterParity plays one script covering every outcome through the
// middleware and through the interceptor on twin manual clocks: the two
// adapters are shells over the same begin/end, so the decision log, the
// counters and histograms, and the flight recorder's contents must be
// identical, and every outcome must occur.
func TestAdapterParity(t *testing.T) {
	for _, reject := range []bool{false, true} {
		viaHTTP, viaRPC := runScript(t, true, reject), runScript(t, false, reject)
		if len(viaHTTP.decisions) != len(script) {
			t.Errorf("reject=%v: DecisionLog called %d times for %d requests", reject, len(viaHTTP.decisions), len(script))
		}
		for i := range script {
			if i < len(viaHTTP.decisions) && i < len(viaRPC.decisions) && viaHTTP.decisions[i] != viaRPC.decisions[i] {
				t.Errorf("reject=%v step %q: decisions differ:\n http %s\n rpc  %s", reject, script[i].name, viaHTTP.decisions[i], viaRPC.decisions[i])
			}
			if viaHTTP.ran[i] != viaRPC.ran[i] || viaHTTP.levels[i] != viaRPC.levels[i] {
				t.Errorf("reject=%v step %q: ran %v/%v, level %d/%d", reject, script[i].name,
					viaHTTP.ran[i], viaRPC.ran[i], viaHTTP.levels[i], viaRPC.levels[i])
			}
		}
		if viaHTTP.metrics != viaRPC.metrics {
			t.Errorf("reject=%v: metrics differ:\n%s\n---\n%s", reject, viaHTTP.metrics, viaRPC.metrics)
		}
		if viaHTTP.flight != viaRPC.flight {
			t.Errorf("reject=%v: flight state differs:\n%s\n---\n%s", reject, viaHTTP.flight, viaRPC.flight)
		}

		// The script reached every level and every outcome, and the
		// adapters reported each refusal their own way.
		wantLevels := []int32{0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 2}
		for i, l := range wantLevels {
			if viaHTTP.levels[i] != l {
				t.Errorf("reject=%v step %q: brownout level %d, want %d", reject, script[i].name, viaHTTP.levels[i], l)
			}
		}
		want := map[string]int64{
			"serve_admitted": 8, "serve_downgraded": 1, "serve_rejected": 0,
			"serve_expired": 2, "serve_shed": 4, "serve_quota_dropped": 1, "serve_completed": 9,
		}
		if reject {
			want["serve_downgraded"], want["serve_rejected"], want["serve_completed"] = 0, 1, 8
		}
		for name, n := range want {
			if got := viaHTTP.counters[name]; got != n {
				t.Errorf("reject=%v: %s = %d, want %d", reject, name, got, n)
			}
		}
		for i, want := range map[int][2]string{
			2:  {`X-Aequitas-Expired=1`, ErrExpired.Error()},
			3:  {`X-Aequitas-Expired=1`, ErrExpired.Error()},
			6:  {`X-Aequitas-Shed=thin-scavenger`, ErrShed.Error()},
			7:  {`X-Aequitas-Shed=thin-scavenger`, ErrShed.Error()},
			9:  {`X-Aequitas-Shed=tighten`, ErrShed.Error()},
			12: {`X-Aequitas-Shed=hard-shed`, ErrShed.Error()},
			14: {`dropped by quota policy`, ErrRejected.Error()},
		} {
			if !strings.Contains(viaHTTP.wire[i], want[0]) || !strings.HasPrefix(viaHTTP.wire[i], "503 ") {
				t.Errorf("reject=%v step %q over HTTP: %s", reject, script[i].name, viaHTTP.wire[i])
			}
			if viaRPC.wire[i] != want[1] {
				t.Errorf("reject=%v step %q over RPC: %s", reject, script[i].name, viaRPC.wire[i])
			}
		}
		if reject {
			if w := viaHTTP.wire[1]; !strings.HasPrefix(w, "503 ") || !strings.Contains(w, "X-Aequitas-Downgraded=1") ||
				!strings.Contains(w, "X-Aequitas-Class=QoSl") || viaRPC.wire[1] != ErrRejected.Error() {
				t.Errorf("rejected downgrade: %s / %s", w, viaRPC.wire[1])
			}
		}
		if !strings.Contains(viaHTTP.flight, "Detail:brownout tighten -> hard-shed") {
			t.Errorf("reject=%v: last trigger is not the last escalation:\n%.400s", reject, viaHTTP.flight)
		}
	}
}

// TestClockReadBudget pins the layer's clock reads per request with a
// counting clock. A served request reads it twice, bare or hardened, in
// quota or out of it: begin's start and end's completion time, which also
// stamps the controller's observation. Hardened, the start is the reading
// the controller's quota bucket and flight record take in AdmitAt, not a
// third one after the decision: no DecisionLog is set and no other
// goroutine holds the quota lock (TestSlowDecisionLogIsNotLatency covers
// the case where one more is taken). A request refused after a failed draw
// reads it only where the decision needs it: never bare, once hardened.
// (This same test measured 3 and 4, and 5 out of quota, while the quota
// wrapper, the flight tap and Observe each took a reading of their own,
// and 3 hardened while the start was read after Admit's own reading.)
func TestClockReadBudget(t *testing.T) {
	for _, tc := range []struct {
		name             string
		hardened, refuse bool
		grant            float64 // the tenant's quota in bytes/s
		max              int64
	}{
		{"bare", false, false, 0, 2},
		{"hardened", true, false, 1e9, 2},
		{"hardened, out of quota", true, false, 1, 2},
		{"bare, refused", false, true, 0, 0},
		{"hardened, refused", true, true, 1, 1},
	} {
		var base core.Clock = core.NewWallClock()
		if tc.refuse {
			base = failingDraws{base}
		}
		clk := &countingClock{Clock: base}
		ctl, err := aequitas.NewControllerWithClock(aequitas.ControllerConfig{
			SLOs: []aequitas.SLO{{Target: time.Second}},
		}, clk)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Controller: ctl, RejectDowngraded: tc.refuse}
		if tc.hardened {
			quota := core.NewQuotaServer(map[qos.Class]float64{qos.High: 1e9})
			if err := quota.Grant("tenant", qos.High, tc.grant); err != nil {
				t.Fatal(err)
			}
			ctl.SetQuota(quota.ClientWithClock("tenant", clk), core.QuotaFailOpen)
			cfg.Flight = &FlightConfig{Engine: &flight.EngineConfig{}}
			cfg.Deadline = &DeadlineConfig{}
			cfg.Brownout = &BrownoutConfig{LatencyThreshold: time.Second}
		}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := a.Middleware(httpOK())
		req := httptest.NewRequest("GET", "/rpc", nil)
		req.Header.Set(HeaderDeadline, "10s")
		const n = 100
		clk.reads.Store(0)
		for i := 0; i < n; i++ {
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		// All n requests were served inside the first window and tick
		// period, so no election's work is in the count.
		if got := clk.reads.Load(); got > tc.max*n {
			t.Errorf("%s: %d clock reads for %d requests, want at most %d each", tc.name, got, n, tc.max)
		} else {
			t.Logf("%s: %.2f clock reads per request", tc.name, float64(got)/n)
		}
		if got := snapCounter(a, "serve_rejected"); (got == n) != tc.refuse {
			t.Errorf("%s: %d of %d requests rejected", tc.name, got, n)
		}
		if qs, ok := ctl.QuotaStats(); ok && (qs.InQuotaAdmits == n) != (tc.grant > 1) {
			t.Errorf("%s: %d of %d requests in quota", tc.name, qs.InQuotaAdmits, n)
		}
		checkLedger(t, a, n)
	}
}

// TestSlowDecisionLogIsNotLatency serves requests whose DecisionLog
// callback takes a second of the manual clock and whose handler takes
// 100 µs, bare and hardened (where the decision reads the clock, and that
// reading could otherwise stand as the start): the controller observes
// the handler's 100 µs, well inside the 10 ms SLO, so p_admit stays 1,
// and the flight record of every completion carries 100 µs. The same
// second spent in the handler shows as SLO misses, so the test can see
// one.
func TestSlowDecisionLogIsNotLatency(t *testing.T) {
	for _, tc := range []struct {
		name           string
		hardened, slow bool // slow: the handler takes the second
	}{
		{"bare", false, false},
		{"hardened", true, false},
		{"bare, slow handler", false, true},
		{"hardened, slow handler", true, true},
	} {
		ctl, clk := newManualController(t)
		advance := func(d time.Duration) { clk.SetNow(clk.Now() + sim.FromStd(d)) }
		logDur, handlerDur := time.Second, 100*time.Microsecond
		if tc.slow {
			logDur, handlerDur = 0, time.Second
		}
		cfg := Config{Controller: ctl, DecisionLog: func(Verdict) { advance(logDur) }}
		if tc.hardened {
			quota := core.NewQuotaServer(map[qos.Class]float64{qos.High: 1e9})
			if err := quota.Grant("tenant", qos.High, 1e9); err != nil {
				t.Fatal(err)
			}
			ctl.SetQuota(quota.ClientWithClock("tenant", clk), core.QuotaFailOpen)
			cfg.Flight = &FlightConfig{SampleAdmits: 1}
		}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := a.Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { advance(handlerDur) }))
		const n = 20
		for i := 0; i < n; i++ {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/rpc", nil))
		}
		if p := ctl.AdmitProbability("/rpc", aequitas.High); (p < 1) != tc.slow {
			t.Errorf("%s: p_admit %v after %d requests of %v in the handler", tc.name, p, n, handlerDur)
		}
		if !tc.hardened {
			continue
		}
		completes := 0
		for _, r := range a.fl.rings.Snapshot(false) {
			if r.Kind != flight.KindComplete {
				continue
			}
			completes++
			if want := float64(handlerDur.Microseconds()); r.LatencyUS != want {
				t.Errorf("%s: completion recorded %v µs, want %v", tc.name, r.LatencyUS, want)
			}
		}
		if completes != n {
			t.Errorf("%s: %d completions recorded, want %d", tc.name, completes, n)
		}
	}
}

// TestOneElection completes requests from many goroutines across many
// window boundaries of a manual clock. Every boundary must be won by
// exactly one completion: with a ladder that never steps, the up-streak
// counts the brownout evaluations, and with no cooldown the trigger count
// counts the engine's ticks. Under -race, two winners at once would also
// show as a race on the winner-only state.
func TestOneElection(t *testing.T) {
	const workers, windows = 8, 40
	clk := &core.ManualClock{}
	clk.SetNow(sim.Time(1))
	ctl, err := aequitas.NewControllerWithClock(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{{Target: time.Millisecond}},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{
		Controller: ctl,
		Brownout: &BrownoutConfig{
			LatencyThreshold: time.Nanosecond,
			Window:           time.Second,
			StepUpAfter:      windows + 1,
		},
		Flight: &FlightConfig{
			TickEvery: time.Second,
			Engine:    &flight.EngineConfig{MinSamples: 1, Cooldown: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The request that follows each round takes 2 ns, slow like the rest:
	// it is counted in the next window, where a fast one beside the first
	// worker to finish would make that window half slow — not overloaded,
	// and the streak this test counts evaluations by would restart.
	h := a.Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		clk.SetNow(clk.Now() + sim.FromStd(2*time.Nanosecond))
	}))
	for w := 1; w <= windows; w++ {
		// Every request of the round starts at the boundary and ends 5 ms
		// past it: a slow completion, an SLO miss, and due for election.
		var started, wg sync.WaitGroup
		started.Add(workers)
		release := make(chan struct{})
		slow := a.Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			started.Done()
			<-release
		}))
		clk.SetNow(sim.Time(1) + sim.FromStd(time.Duration(w)*time.Second))
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				slow.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/rpc", nil))
			}()
		}
		started.Wait()
		clk.SetNow(clk.Now() + sim.FromStd(5*time.Millisecond))
		close(release)
		wg.Wait()
		// Later completions inside the same window elect nobody.
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/rpc", nil))
		if got := a.bo.upStreak; got != w {
			t.Fatalf("after %d windows: %d brownout evaluations", w, got)
		}
	}
	if got := a.bo.transitions.Load(); got != 0 || a.BrownoutLevel() != BrownoutOff {
		t.Errorf("ladder moved: %d transitions, level %d", got, a.BrownoutLevel())
	}
	// The first tick has no earlier sample to burn against.
	if got := a.FlightTriggered(); got != windows-1 {
		t.Errorf("%d flight triggers over %d engine periods, want %d", got, windows, windows-1)
	}
	if tr, _, ok := a.LastFlightDump(); !ok || tr.Kind != flight.TriggerBurnRate ||
		tr.At != sim.Time(1)+sim.FromStd(windows*time.Second+5*time.Millisecond) {
		t.Errorf("last trigger = %+v, %v", tr, ok)
	}
	checkLedger(t, a, windows*(workers+1))
}
