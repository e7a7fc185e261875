// Command aequitas-serve demonstrates the admission controller serving
// live traffic: a demo HTTP server whose handlers run behind the
// serve.Admission middleware, and a load-generating client that drives a
// mixed-class workload at it and reports what the controller did.
//
// Server (terminal 1):
//
//	aequitas-serve -mode server -addr :8080 -work 300us -slo 200us
//
// Load (terminal 2):
//
//	aequitas-serve -mode client -url http://localhost:8080 -conc 16 -duration 10s
//
// While the load runs, live metrics are on the server:
//
//	curl -s localhost:8080/metrics   # Prometheus text, padmit gauges
//	curl -s localhost:8080/snapshot  # JSON document
//
// With -work above -slo the handler can never meet the SLO, so the admit
// probability falls and the client sees X-Aequitas-Downgraded responses —
// Algorithm 1 converging on the wall clock.
//
// The hardened serving path layers on top:
//
//   - -deadlines checks each request's X-Aequitas-Deadline budget (or
//     context deadline) against the learned per-class latency floor and
//     rejects expired-before-admit work;
//   - -brownout arms the overload ladder (thin scavenger, tighten
//     p_admit, hard shed) driven by completion latency;
//   - -quota-rate grants the demo tenant a guaranteed rate through a
//     TTL-leased quota client, with -quota-policy choosing fail-open or
//     fail-closed behaviour when the quota plane is unreachable;
//   - -chaos runs a wall-clock fault plan (latency spikes, error bursts,
//     quota outages) against the live server — the overload drill in
//     EXPERIMENTS.md walks through a full run.
//
// The server carries a flight recorder (-flight): the last N admission
// decisions ride in a lock-free ring, the burn-rate anomaly engine (and
// every brownout escalation) dumps it as NDJSON, and
// /debug/flight serves the trigger status and dumps. On SIGINT/SIGTERM
// the server shuts down gracefully — in-flight requests drain and a final
// flight dump is written.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/faults"
	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/serve"
	"aequitas/serve/chaos"
)

type serverOpts struct {
	addr      string
	work      time.Duration
	slo       time.Duration
	reject    bool
	rejStatus int
	retry     time.Duration
	flightOut string
	flightDir string
	drain     time.Duration

	deadlines bool
	minBudget time.Duration
	brownout  bool
	boLatency time.Duration

	quotaRate   float64
	quotaTTL    time.Duration
	quotaPolicy string

	chaosSpec string
	chaosLen  time.Duration
}

func main() {
	var (
		mode = flag.String("mode", "server", "server | client")
		o    serverOpts

		url        = flag.String("url", "http://localhost:8080", "client: target server")
		conc       = flag.Int("conc", 16, "client: concurrent workers")
		duration   = flag.Duration("duration", 10*time.Second, "client: run length")
		reqTimeout = flag.Duration("req-timeout", 0, "client: per-request timeout, also sent as the X-Aequitas-Deadline budget (0 disables)")
	)
	flag.StringVar(&o.addr, "addr", ":8080", "server listen address")
	flag.DurationVar(&o.work, "work", 300*time.Microsecond, "server: simulated handler work per request")
	flag.DurationVar(&o.slo, "slo", 200*time.Microsecond, "server: latency SLO for the highest class (medium gets 2x)")
	flag.BoolVar(&o.reject, "reject", false, "server: reject downgraded requests instead of serving them")
	flag.IntVar(&o.rejStatus, "reject-status", 0, "server: HTTP status for rejected/shed/expired requests (default 503)")
	flag.DurationVar(&o.retry, "retry-after", 0, "server: fixed Retry-After hint; 0 derives it from the class's increment window")
	flag.StringVar(&o.flightOut, "flight", "", "server: write the final flight dump (NDJSON) here on shutdown; empty disables the recorder")
	flag.StringVar(&o.flightDir, "flight-profiles", "", "server: capture goroutine/heap profiles into this directory on anomaly triggers")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "server: graceful-shutdown drain budget")
	flag.BoolVar(&o.deadlines, "deadlines", false, "server: reject requests whose deadline budget cannot cover the latency floor")
	flag.DurationVar(&o.minBudget, "min-budget", 0, "server: static minimum deadline budget (with -deadlines)")
	flag.BoolVar(&o.brownout, "brownout", false, "server: arm the overload brownout ladder")
	flag.DurationVar(&o.boLatency, "brownout-threshold", 0, "server: brownout slow-completion threshold (default 4x -slo)")
	flag.Float64Var(&o.quotaRate, "quota-rate", 0, "server: guaranteed tenant rate in bytes/s on the highest class (0 disables quotas)")
	flag.DurationVar(&o.quotaTTL, "quota-ttl", 100*time.Millisecond, "server: quota lease TTL (0 refreshes every check)")
	flag.StringVar(&o.quotaPolicy, "quota-policy", "fail-open", "server: stale-lease policy: fail-open | fail-closed")
	flag.StringVar(&o.chaosSpec, "chaos", "", "server: chaos plan — a preset ("+strings.Join(faults.PresetNames(true), "|")+") or @file in the fault-plan grammar (README \"Fault plans\"; serving kinds only)")
	flag.DurationVar(&o.chaosLen, "chaos-duration", time.Minute, "server: run length chaos presets are scaled to")
	flag.Parse()
	switch *mode {
	case "server":
		runServer(o)
	case "client":
		runClient(*url, *conc, *duration, *reqTimeout)
	default:
		fmt.Fprintf(os.Stderr, "unknown -mode %q (want server or client)\n", *mode)
		os.Exit(2)
	}
}

// chaosPlan resolves -chaos: a preset name or "@path" to a plan file.
func chaosPlan(spec string, length time.Duration) (*faults.Plan, error) {
	if spec == "" {
		return nil, nil
	}
	if strings.HasPrefix(spec, "@") {
		f, err := os.Open(spec[1:])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return faults.ParsePlan(f)
	}
	return faults.Preset(spec, length)
}

func runServer(o serverOpts) {
	ctl, err := aequitas.NewController(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{
			{Target: o.slo},
			{Target: 2 * o.slo},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Optional quota plane: one tenant granted a rate on the highest
	// class, consumed through TTL leases so outages are survivable.
	var quotaPlane chaos.QuotaPlane // stays nil without -quota-rate
	if o.quotaRate > 0 {
		quotaSrv := core.NewQuotaServer(map[qos.Class]float64{qos.High: o.quotaRate})
		quotaPlane = quotaSrv
		if err := quotaSrv.Grant("demo", qos.High, o.quotaRate); err != nil {
			log.Fatal(err)
		}
		cli := quotaSrv.Client("demo")
		cli.LeaseTTL = o.quotaTTL
		policy := core.QuotaFailOpen
		switch o.quotaPolicy {
		case "fail-open":
		case "fail-closed":
			policy = core.QuotaFailClosed
		default:
			log.Fatalf("unknown -quota-policy %q (want fail-open or fail-closed)", o.quotaPolicy)
		}
		ctl.SetQuota(cli, policy)
		log.Printf("quota: demo tenant granted %.0f B/s on QoSh, lease TTL %v, %v", o.quotaRate, o.quotaTTL, policy)
	}

	scfg := serve.Config{
		Controller:       ctl,
		RejectDowngraded: o.reject,
		RejectStatus:     o.rejStatus,
		RetryAfter:       o.retry,
	}
	if o.flightOut != "" {
		scfg.Flight = &serve.FlightConfig{
			ProfileDir: o.flightDir,
			Engine:     &flight.EngineConfig{},
		}
	}
	if o.deadlines {
		scfg.Deadline = &serve.DeadlineConfig{MinBudget: o.minBudget}
	}
	if o.brownout {
		thr := o.boLatency
		if thr <= 0 {
			thr = 4 * o.slo
		}
		scfg.Brownout = &serve.BrownoutConfig{LatencyThreshold: thr}
		log.Printf("brownout: armed (threshold %v)", thr)
	}
	adm, err := serve.New(scfg)
	if err != nil {
		log.Fatal(err)
	}

	// Optional chaos plan, pumped on the wall clock for the lifetime of
	// the server.
	plan, err := chaosPlan(o.chaosSpec, o.chaosLen)
	var inj *chaos.Injector
	if err == nil && !plan.Empty() {
		inj, err = chaos.NewInjector(plan, quotaPlane)
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range plan.Windows() {
		log.Printf("chaos: %v window %v - %v", w.Kind, w.Start.Std(), w.End.Std())
	}

	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Simulated downstream work; scavenger-class requests run the
		// same code, they just ride a lower network priority in a real
		// deployment.
		time.Sleep(o.work)
		class, _ := serve.ParseClass(w.Header().Get(serve.HeaderClass))
		fmt.Fprintf(w, "ok class=%v downgraded=%v\n", class, w.Header().Get(serve.HeaderDowngraded) != "")
	})
	var inner http.Handler = handler
	if inj != nil {
		// The injector wraps inside admission so injected latency and
		// errors land in the observed SLO, like a sick downstream would.
		inner = inj.Wrap(inner)
	}
	app := adm.Middleware(inner)

	mux := http.NewServeMux()
	metrics := adm.Handler()
	mux.Handle("/metrics", metrics)
	mux.Handle("/snapshot", metrics)
	mux.Handle("/debug/pprof/", metrics)
	mux.Handle("/debug/flight", metrics)
	mux.Handle("/", app)

	stopStats := make(chan struct{})
	go func() {
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s := ctl.Stats()
				line := fmt.Sprintf("ctl: admitted=%d downgraded=%d expired=%d slo_met=%d slo_miss=%d triggers=%d brownout=%d",
					s.Admitted, s.Downgraded, s.Expired, s.SLOMet, s.SLOMisses, adm.FlightTriggered(), adm.BrownoutLevel())
				if qs, ok := ctl.QuotaStats(); ok {
					line += fmt.Sprintf(" quota{bypass=%d stale_passed=%d stale_dropped=%d}",
						qs.InQuotaAdmits, qs.StalePassed, qs.StaleDropped)
				}
				log.Print(line)
			case <-stopStats:
				return
			}
		}
	}()

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and flush
	// the black box: Shutdown stops accepting, waits for handlers (bounded
	// by the drain budget), and only then do we freeze the final state.
	srv := &http.Server{Addr: o.addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if inj != nil {
		go inj.Run(ctx, 50*time.Millisecond)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s (work=%v, SLO=%v/%v, reject=%v)", o.addr, o.work, o.slo, 2*o.slo, o.reject)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down: draining in-flight requests (budget %v)", o.drain)
	sctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	close(stopStats)

	// Final telemetry flush: the closing counters, and the flight ring as
	// the shutdown dump.
	s := ctl.Stats()
	log.Printf("final: admitted=%d downgraded=%d dropped=%d expired=%d slo_met=%d slo_miss=%d triggers=%d",
		s.Admitted, s.Downgraded, s.Dropped, s.Expired, s.SLOMet, s.SLOMisses, adm.FlightTriggered())
	if o.flightOut != "" {
		f, err := os.Create(o.flightOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := adm.DumpFlight(f, flight.TriggerFinal, "graceful shutdown"); err != nil {
			log.Fatalf("flight dump: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("flight dump written to %s", o.flightOut)
	}
}

// clientStats aggregates one load run.
type clientStats struct {
	sent, downgraded, rejected, expired, shed, timeouts, errors atomic.Int64

	mu        sync.Mutex
	latencies []time.Duration
}

func runClient(url string, conc int, duration, reqTimeout time.Duration) {
	var cs clientStats
	classes := []string{"QoSh", "QoSh", "QoSm", "QoSl"} // 2:1:1 mix
	deadline := time.Now().Add(duration)
	timeout := 5 * time.Second
	if reqTimeout > 0 {
		timeout = reqTimeout
	}
	client := &http.Client{Timeout: timeout}

	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				req, err := http.NewRequest("GET", url+"/demo", nil)
				if err != nil {
					cs.errors.Add(1)
					continue
				}
				req.Header.Set(serve.HeaderClass, classes[(w+i)%len(classes)])
				if reqTimeout > 0 {
					// Advertise the budget so the server can reject work
					// that cannot finish inside it.
					req.Header.Set(serve.HeaderDeadline, reqTimeout.String())
				}
				start := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					// A client-side timeout is the expired budget seen
					// from the other end; count it apart from transport
					// errors.
					if errors.Is(err, context.DeadlineExceeded) || os.IsTimeout(err) {
						cs.timeouts.Add(1)
					} else {
						cs.errors.Add(1)
					}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				elapsed := time.Since(start)
				cs.sent.Add(1)
				switch {
				case resp.Header.Get(serve.HeaderExpired) != "":
					// Rejected before the draw: the budget could not cover
					// the server's latency floor.
					cs.expired.Add(1)
				case resp.Header.Get(serve.HeaderShed) != "":
					cs.shed.Add(1)
				case resp.StatusCode >= 400:
					cs.rejected.Add(1)
				case resp.Header.Get(serve.HeaderDowngraded) == "1":
					cs.downgraded.Add(1)
				}
				resp.Body.Close()
				cs.mu.Lock()
				cs.latencies = append(cs.latencies, elapsed)
				cs.mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	sent := cs.sent.Load()
	fmt.Printf("sent=%d downgraded=%d rejected=%d expired=%d shed=%d timeouts=%d errors=%d (%.1f req/s)\n",
		sent, cs.downgraded.Load(), cs.rejected.Load(), cs.expired.Load(), cs.shed.Load(),
		cs.timeouts.Load(), cs.errors.Load(), float64(sent)/duration.Seconds())
	if len(cs.latencies) > 0 {
		sort.Slice(cs.latencies, func(i, j int) bool { return cs.latencies[i] < cs.latencies[j] })
		pct := func(p float64) time.Duration {
			i := int(p / 100 * float64(len(cs.latencies)-1))
			return cs.latencies[i]
		}
		fmt.Printf("latency: p50=%v p90=%v p99=%v max=%v\n",
			pct(50), pct(90), pct(99), cs.latencies[len(cs.latencies)-1])
	}
}
