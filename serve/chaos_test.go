package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/faults"
	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/serve/chaos"
)

// quotaScenario drives one deterministic quota-outage run on a manual
// clock: in-quota load through the middleware, a quota-plane outage from
// 1s to 3s (when outage is set), 10ms between requests over 4s.
type quotaScenario struct {
	served        int
	rejected      int
	bypassAtStart int64 // InQuotaAdmits when the lease first went stale
	bypassAtEnd   int64 // InQuotaAdmits just before the plane recovers
	stats         aequitas.QuotaStats
}

func runQuotaScenario(t *testing.T, policy core.QuotaFailPolicy, outage bool) quotaScenario {
	t.Helper()
	clk := &core.ManualClock{}
	epoch := sim.Time(1)
	clk.SetNow(epoch)
	ctl, err := aequitas.NewControllerWithClock(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{{Target: 10 * time.Millisecond}},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewQuotaServer(map[qos.Class]float64{qos.High: 1e9})
	if err := q.Grant("tenant", qos.High, 1e9); err != nil {
		t.Fatal(err)
	}
	cli := q.ClientWithClock("tenant", clk)
	cli.LeaseTTL = 50 * time.Millisecond
	ctl.SetQuota(cli, policy)
	a, err := New(Config{Controller: ctl})
	if err != nil {
		t.Fatal(err)
	}
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	var plan *faults.Plan
	if outage {
		plan = &faults.Plan{Events: []faults.Event{
			{At: 1 * sim.Second, Kind: faults.QuotaDown},
			{At: 3 * sim.Second, Kind: faults.QuotaUp},
		}}
	}
	inj, err := chaos.NewInjector(plan, q)
	if err != nil {
		t.Fatal(err)
	}

	var sc quotaScenario
	staleSeen := false
	for i := 0; i < 400; i++ {
		elapsed := time.Duration(i) * 10 * time.Millisecond
		clk.SetNow(epoch + sim.FromStd(elapsed))
		inj.Advance(elapsed)
		req := httptest.NewRequest("GET", "/rpc", nil)
		req.Header.Set(HeaderClass, "high")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			sc.served++
		default:
			sc.rejected++
		}
		qs, _ := ctl.QuotaStats()
		if outage && !staleSeen && qs.Lease.StaleChecks > 0 {
			staleSeen = true
			sc.bypassAtStart = qs.InQuotaAdmits
		}
		if outage && elapsed < 3*time.Second {
			sc.bypassAtEnd = qs.InQuotaAdmits
		}
	}
	if outage && !staleSeen {
		t.Fatal("outage scenario never saw a stale lease")
	}
	sc.stats, _ = ctl.QuotaStats()
	checkLedger(t, a, 400)
	return sc
}

// TestChaosQuotaOutagePolicies is the quota-plane half of the acceptance
// drill: under a 2s quota-plane outage, fail-open goodput stays within
// 10% of the no-fault baseline (requests fall through to Algorithm 1),
// while fail-closed sheds — zero quota-bypass admits once the lease goes
// stale, and every stale-window request dropped.
func TestChaosQuotaOutagePolicies(t *testing.T) {
	base := runQuotaScenario(t, core.QuotaFailOpen, false)
	if base.served != 400 {
		t.Fatalf("baseline served %d of 400", base.served)
	}

	open := runQuotaScenario(t, core.QuotaFailOpen, true)
	if open.served < base.served*9/10 {
		t.Errorf("fail-open goodput %d below 90%% of baseline %d", open.served, base.served)
	}
	if open.stats.StalePassed == 0 {
		t.Error("fail-open never exercised the stale fall-through")
	}
	if open.stats.StaleDropped != 0 {
		t.Errorf("fail-open dropped %d", open.stats.StaleDropped)
	}

	closed := runQuotaScenario(t, core.QuotaFailClosed, true)
	if closed.stats.StaleDropped == 0 {
		t.Fatal("fail-closed never dropped")
	}
	if closed.bypassAtEnd != closed.bypassAtStart {
		t.Errorf("fail-closed admitted %d quota-bypass RPCs during the stale window",
			closed.bypassAtEnd-closed.bypassAtStart)
	}
	if got := int64(closed.rejected); got != closed.stats.StaleDropped {
		t.Errorf("rejected %d != StaleDropped %d", got, closed.stats.StaleDropped)
	}
	// Recovery: the post-outage second served normally again.
	if closed.served+closed.rejected != 400 || closed.served < 190 {
		t.Errorf("fail-closed served %d, rejected %d", closed.served, closed.rejected)
	}
}

// TestChaosOverloadDrill is the latency half of the acceptance drill,
// fully deterministic on a manual clock: a 20ms latency fault from 2s to
// 6s against a 10ms SLO must (1) dip p_admit well below 1 and
// re-converge after the fault clears, (2) step the brownout ladder up
// during the fault and return it to level 0 after, and (3) freeze
// validated aequitas.flight/v1 dumps at the brownout onsets.
func TestChaosOverloadDrill(t *testing.T) {
	clk := &core.ManualClock{}
	epoch := sim.Time(1)
	clk.SetNow(epoch)
	ctl, err := aequitas.NewControllerWithClock(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{{Target: 10 * time.Millisecond, Percentile: 90}},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{
		Controller: ctl,
		Brownout: &BrownoutConfig{
			LatencyThreshold: 10 * time.Millisecond,
			Window:           time.Second,
			StepUpAfter:      1,
			StepDownAfter:    2,
		},
		Flight: &FlightConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Events: []faults.Event{
		{At: 2 * sim.Second, Kind: faults.Slow, Amount: 20 * sim.Millisecond},
		{At: 6 * sim.Second, Kind: faults.Slow},
	}}
	inj, err := chaos.NewInjector(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The handler "takes" 1ms plus whatever latency the injector says —
	// the injected fault drives the SLO and brownout signals with zero
	// real sleeping.
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		clk.SetNow(clk.Now() + sim.FromStd(time.Millisecond+inj.ExtraLatency()))
		w.WriteHeader(http.StatusOK)
	}))

	var minP = 1.0
	var pDuringFault, maxLevel float64
	sawLevelUp := false
	for i := 0; i < 2000; i++ {
		elapsed := time.Duration(i) * 10 * time.Millisecond // 20s total
		clk.SetNow(epoch + sim.FromStd(elapsed))
		inj.Advance(elapsed)
		req := httptest.NewRequest("GET", "/rpc", nil)
		req.Header.Set(HeaderClass, "high")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		p := ctl.AdmitProbability("/rpc", aequitas.High)
		if p < minP {
			minP = p
		}
		if elapsed == 5*time.Second {
			pDuringFault = p
		}
		if lvl := float64(a.BrownoutLevel()); lvl > maxLevel {
			maxLevel = lvl
			if lvl > 0 {
				sawLevelUp = true
			}
		}
	}

	// (1) p_admit dipped under the fault and re-converged after it.
	if pDuringFault > 0.5 {
		t.Errorf("p_admit during fault = %.3f, want a clear dip", pDuringFault)
	}
	pEnd := ctl.AdmitProbability("/rpc", aequitas.High)
	if pEnd < 0.9 {
		t.Errorf("p_admit after recovery = %.3f, want re-convergence toward 1", pEnd)
	}

	// (2) the brownout ladder stepped up and fully recovered.
	if !sawLevelUp {
		t.Error("brownout never stepped up under the latency fault")
	}
	if lvl := a.BrownoutLevel(); lvl != BrownoutOff {
		t.Errorf("brownout level after recovery = %d, want 0", lvl)
	}

	// (3) dumps fired at the onsets and validate as aequitas.flight/v1.
	if a.FlightTriggered() == 0 {
		t.Fatal("no flight dump fired")
	}
	tr, dump, ok := a.LastFlightDump()
	if !ok {
		t.Fatal("no last flight dump")
	}
	if tr.Kind != flight.TriggerBrownout {
		t.Errorf("last trigger = %v, want brownout", tr.Kind)
	}
	if !strings.Contains(tr.Detail, "brownout") {
		t.Errorf("trigger detail = %q", tr.Detail)
	}
	if _, records, err := flight.ValidateDump(bytes.NewReader(dump)); err != nil {
		t.Errorf("dump does not validate: %v", err)
	} else if records == 0 {
		t.Error("dump holds no records")
	}
	checkLedger(t, a, 2000)
}

// TestChaosServeWallClockSmoke is the race-enabled wall-clock smoke the
// chaos-serve-check make target runs: a real httptest server behind the
// full middleware stack (deadline budgets, brownout, quota leases) with
// the injector pumping latency spikes, an error burst, and a quota
// outage on real time, under concurrent clients. It asserts liveness and
// counter consistency, not exact outcomes — the wall clock is not
// deterministic.
func TestChaosServeWallClockSmoke(t *testing.T) {
	ctl, err := aequitas.NewController(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{{Target: 5 * time.Millisecond}, {Target: 10 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewQuotaServer(map[qos.Class]float64{qos.High: 1e8})
	if err := q.Grant("tenant", qos.High, 1e8); err != nil {
		t.Fatal(err)
	}
	cli := q.Client("tenant")
	cli.LeaseTTL = 20 * time.Millisecond
	ctl.SetQuota(cli, core.QuotaFailOpen)
	a, err := New(Config{
		Controller: ctl,
		Deadline:   &DeadlineConfig{},
		Brownout: &BrownoutConfig{
			LatencyThreshold: 2 * time.Millisecond,
			Window:           50 * time.Millisecond,
		},
		Flight: &FlightConfig{Engine: &flight.EngineConfig{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Events: []faults.Event{
		{At: 20 * sim.Millisecond, Kind: faults.Slow, Amount: 3 * sim.Millisecond},
		{At: 40 * sim.Millisecond, Kind: faults.Errors, Rate: 0.3},
		{At: 50 * sim.Millisecond, Kind: faults.QuotaDown},
		{At: 120 * sim.Millisecond, Kind: faults.Errors},
		{At: 150 * sim.Millisecond, Kind: faults.QuotaUp},
		{At: 180 * sim.Millisecond, Kind: faults.Slow},
	}}
	inj, err := chaos.NewInjector(plan, q)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the first fault before load starts: on a fast machine the
	// whole run can finish inside the first event's offset, and the point
	// of the smoke is accounting *under* chaos. With the latency spike
	// active every request takes >= its injected delay, so the wall-clock
	// pump has time to walk the rest of the plan.
	inj.Advance(plan.Events[0].At.Std())
	srv := httptest.NewServer(inj.Wrap(a.Middleware(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }))))
	defer srv.Close()

	stopPump := make(chan struct{})
	go func() {
		start := time.Now()
		for {
			select {
			case <-stopPump:
				return
			default:
			}
			inj.Advance(time.Since(start))
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer close(stopPump)

	const workers, perWorker = 4, 50
	type tally struct{ ok, rejected, errored, expired int }
	results := make(chan tally, workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			var tl tally
			client := srv.Client()
			for i := 0; i < perWorker; i++ {
				req, _ := http.NewRequest("GET", srv.URL, nil)
				req.Header.Set(HeaderClass, "high")
				if i%4 == 0 {
					req.Header.Set(HeaderDeadline, "1ms") // tight budget: may expire
				}
				resp, err := client.Do(req)
				if err != nil {
					tl.errored++
					continue
				}
				switch {
				case resp.StatusCode == http.StatusOK:
					tl.ok++
				case resp.Header.Get(HeaderExpired) != "":
					tl.expired++
				default:
					tl.rejected++
				}
				resp.Body.Close()
			}
			results <- tl
		}(w)
	}
	var total tally
	for w := 0; w < workers; w++ {
		tl := <-results
		total.ok += tl.ok
		total.rejected += tl.rejected
		total.errored += tl.errored
		total.expired += tl.expired
	}
	if total.ok == 0 {
		t.Error("no request succeeded under chaos")
	}
	if got := total.ok + total.rejected + total.errored + total.expired; got != workers*perWorker {
		t.Errorf("request accounting: %d of %d", got, workers*perWorker)
	}
	// The metrics surface stays coherent under fire.
	snap := a.Snapshot()
	if len(snap.Counters) == 0 {
		t.Error("empty snapshot under chaos")
	}
	if !inj.Done() && inj.Applied() == 0 {
		t.Error("injector applied no events")
	}
	// Offered is unknown: chaos 500s stop requests before the middleware.
	checkLedger(t, a, -1)
}
