package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/serve"
)

// inprocSLOs make both AIMD branches run on every cycle of the table:
// QoSh's 10 ms per MTU is always met (additive increase, p_admit pinned
// at 1), QoSm's target is below one picosecond per MTU and never met
// (multiplicative decrease, p_admit pinned at the floor), so about 75 %
// of requests are admitted and 25 % downgraded.
var inprocSLOs = []aequitas.SLO{
	{Target: 10 * time.Millisecond},
	{Target: time.Nanosecond, ReferenceBytes: 1000 * 1436}, // 1 ps per MTU
}

const (
	tableSize     = 256 // requests in the table; a power of two
	tablePeers    = 64
	inprocReqs    = 250_000 // requests per rep at scale 1: a rep is a quarter of a second
	inprocWarm    = 8       // discarded warm-up reps
	inprocSpanned = 200_000 // requests in the span-recording rep
)

func peerNames(n int) []string {
	ps := make([]string, n)
	for i := range ps {
		ps[i] = fmt.Sprintf("peer-%02d", i)
	}
	return ps
}

// tableEntry is one generated request before it takes a transport's form.
type tableEntry struct {
	peer     string
	class    aequitas.Class
	bytes    int64
	deadline bool
}

// requestEntries is the seed-shuffled request mix both serving workloads
// cycle through: 64 peers, classes QoSh:QoSm:QoSl 2:1:1, sizes 1-29 KB,
// a 50 ms deadline budget on a quarter.
func requestEntries(seed int64) []tableEntry {
	rng := rand.New(rand.NewSource(seed))
	peers := peerNames(tablePeers)
	classes := []aequitas.Class{aequitas.High, aequitas.High, aequitas.Medium, aequitas.Low}
	es := make([]tableEntry, tableSize)
	for i := range es {
		es[i] = tableEntry{
			peer:     peers[i%tablePeers],
			class:    classes[i%4],
			bytes:    1024 + rng.Int63n(28<<10),
			deadline: i%16 < 4, // spread over all four class slots
		}
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

func requestTable(seed int64) []*http.Request {
	es := requestEntries(seed)
	reqs := make([]*http.Request, len(es))
	for i, e := range es {
		r, err := http.NewRequest("POST", "/backend", nil)
		if err != nil {
			panic(err) // constant method and URL
		}
		r.ContentLength = e.bytes
		r.Header.Set(serve.HeaderPeer, e.peer)
		r.Header.Set(serve.HeaderClass, e.class.String())
		if e.deadline {
			r.Header.Set(serve.HeaderDeadline, "50ms")
		}
		reqs[i] = r
	}
	return reqs
}

// nopResponseWriter keeps the harness out of the measurement; each
// goroutine owns one because the middleware writes response headers.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (nopResponseWriter) WriteHeader(int)               {}

func quotaPlane() (*core.QuotaServer, *core.QuotaClient, error) {
	srv := core.NewQuotaServer(map[qos.Class]float64{qos.High: 1e6})
	if err := srv.Grant("bench", qos.High, 1e6); err != nil {
		return nil, nil, err
	}
	cli := srv.Client("bench")
	cli.LeaseTTL = 100 * time.Millisecond
	return srv, cli, nil
}

// newAdmission builds the serving layer on the wall clock. hardened turns
// on everything PRs 8-10 added: flight recorder with the anomaly engine,
// deadline budgets, the brownout ladder (armed, threshold out of reach so
// it never sheds) and a fail-open quota lease. tune, when set, edits the
// config before construction (the span hooks).
func newAdmission(hardened bool, tune func(*serve.Config)) (*serve.Admission, error) {
	ctl, err := aequitas.NewController(aequitas.ControllerConfig{SLOs: inprocSLOs})
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{Controller: ctl}
	if hardened {
		_, cli, err := quotaPlane()
		if err != nil {
			return nil, err
		}
		ctl.SetQuota(cli, core.QuotaFailOpen)
		cfg.Flight = &serve.FlightConfig{Engine: &flight.EngineConfig{}}
		cfg.Deadline = &serve.DeadlineConfig{}
		cfg.Brownout = &serve.BrownoutConfig{LatencyThreshold: time.Second}
	}
	if tune != nil {
		tune(&cfg)
	}
	return serve.New(cfg)
}

// inprocRep is one timed pass of n requests over workers goroutines.
type inprocRep struct {
	n                     int
	wallNS, cpuUS, allocs float64
	cycleUS               []float64 // per table cycle: wall time / tableSize
}

func runInprocRep(h http.Handler, table []*http.Request, n, workers int) inprocRep {
	cycles := n / workers / tableSize
	if cycles < 1 {
		cycles = 1
	}
	perWorker := make([][]float64, workers)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		ready.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			rw := nopResponseWriter{h: make(http.Header)}
			times := make([]float64, 0, cycles)
			off := w * tableSize / workers
			ready.Done()
			<-start
			for c := 0; c < cycles; c++ {
				t0 := time.Now()
				for i := 0; i < tableSize; i++ {
					h.ServeHTTP(rw, table[(off+i)&(tableSize-1)])
				}
				times = append(times, float64(time.Since(t0).Nanoseconds())/1e3/tableSize)
			}
			perWorker[w] = times
		}(w)
	}
	ready.Wait()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := selfCPU()
	t0 := time.Now()
	close(start)
	done.Wait()
	wall := time.Since(t0)
	cpu1 := selfCPU()
	runtime.ReadMemStats(&m1)
	rep := inprocRep{
		n:      cycles * tableSize * workers,
		wallNS: float64(wall.Nanoseconds()),
		cpuUS:  float64((cpu1 - cpu0).Microseconds()),
		allocs: float64(m1.Mallocs - m0.Mallocs),
	}
	for _, ts := range perWorker {
		rep.cycleUS = append(rep.cycleUS, ts...)
	}
	return rep
}

func counter(snapCounters map[string]float64, name string) int64 { return int64(snapCounters[name]) }

func runInproc(_ string, p params, out io.Writer) (*result, error) {
	r := newResult()
	workers := runtime.NumCPU()
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})

	// Set-up, several times: build the layer and the request table, then
	// serve the table until every channel exists. The last one is kept.
	var (
		a     *serve.Admission
		table []*http.Request
		h     http.Handler
		sent  int64
	)
	setupS, err := medianSetup(func() (err error) {
		if a, err = newAdmission(true, nil); err != nil {
			return err
		}
		table = requestTable(p.seed)
		h = a.Middleware(noop)
		rw := nopResponseWriter{h: make(http.Header)}
		sent = 0
		for c := 0; c < 16; c++ {
			for _, req := range table {
				h.ServeHTTP(rw, req)
				sent++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	n := int(inprocReqs * p.scale)
	// Discarded warm-up reps: p_admit for QoSm reaches the floor and the
	// heap reaches its working size.
	for i := 0; i < inprocWarm; i++ {
		sent += int64(runInprocRep(h, table, n, workers).n)
	}

	var reps []inprocRep
	deadline := time.Now().Add(p.measure())
	for len(reps) < 1 || time.Now().Before(deadline) {
		rep := runInprocRep(h, table, n, workers)
		sent += int64(rep.n)
		reps = append(reps, rep)
		if p.trace {
			break
		}
	}

	// Conservation: every request is exactly one of admitted, downgraded,
	// rejected, expired, shed or dropped, in the middleware's counters
	// and in the controller's; on this workload only the first two occur.
	snap := a.Snapshot()
	ctr := map[string]float64{}
	for _, c := range snap.Counters {
		ctr[c.Name] = c.Value
	}
	admitted, downgraded := counter(ctr, "serve_admitted"), counter(ctr, "serve_downgraded")
	stopped := counter(ctr, "serve_rejected") + counter(ctr, "serve_expired") +
		counter(ctr, "serve_shed") + counter(ctr, "serve_quota_dropped")
	if got := admitted + downgraded + stopped; got != sent {
		r.fail("middleware counters account for %d of %d requests", got, sent)
	}
	if got := counter(ctr, "serve_completed"); got != sent-stopped {
		r.fail("middleware completed %d, want %d", got, sent-stopped)
	}
	cs := a.Controller().Stats()
	if got := cs.Admitted + cs.Downgraded + cs.Dropped + cs.Expired; got != sent {
		r.fail("controller counters account for %d of %d requests", got, sent)
	}
	if cs.Admitted != admitted || cs.Downgraded != downgraded {
		r.fail("controller admitted/downgraded %d/%d, middleware %d/%d", cs.Admitted, cs.Downgraded, admitted, downgraded)
	}
	if f := float64(downgraded) / float64(sent); f < 0.23 || f > 0.27 {
		r.fail("downgraded share %.4f outside 0.25 +- 0.02", f)
	}
	r.attempted, r.failed = sent, stopped

	// QoSh is half the table. QoSm can never meet its target, so every
	// SLO-met observation is a QoSh one.
	var qoshRan int64
	for _, hs := range snap.Hists {
		if hs.LabelVal == aequitas.High.String() {
			qoshRan = hs.Count
		}
	}
	if qoshRan == 0 {
		return nil, fmt.Errorf("no QoSh completion in the serving histograms")
	}

	// Times are the best rep's, the count the median rep's: see the
	// "Steadiness" section of README.md. The host's interference comes in
	// bursts, only ever slows a rep down, and this workload needs both
	// CPUs, so the median of a disturbed run's reps reads 25 % high where
	// its least disturbed quarter of a second reads what a calm run does.
	var ns, cpu, allocs, p50 []float64 // per request, by rep
	for _, rep := range reps {
		n := float64(rep.n)
		ns, cpu, allocs = append(ns, rep.wallNS/n), append(cpu, rep.cpuUS/n), append(allocs, rep.allocs/n)
		p50 = append(p50, median(rep.cycleUS))
	}
	fmt.Fprintf(out, "serve-inproc: %d reps of %d requests on %d goroutines, admitted %d downgraded %d, flight triggers %d; ns per request: best rep %.0f, median rep %.0f\n",
		len(reps), reps[0].n, workers, admitted, downgraded, a.FlightTriggered(), lowest(ns), median(ns))

	if !p.trace {
		r.set("setup_s", setupS)
		r.set("ns_per_op", lowest(ns))
		r.set("cpu_us_per_op", lowest(cpu))
		r.set("allocs_per_op", median(allocs))
		r.set("pc_slo_met_frac", float64(cs.SLOMet)/(float64(sent)/2))
		r.set("qosh_slo_met_frac", float64(cs.SLOMet)/float64(qoshRan))
		r.set("lat_p50_us", lowest(p50))
		return r, nil
	}

	// Traced run: where the CPU goes by package, the ladder of isolated
	// rungs, and span self times from the benchmark's own hooks.
	shares, err := cpuShares(func() error {
		for i := 0; i < 2*inprocWarm; i++ {
			runInprocRep(h, table, n, workers)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for l, share := range shares {
		r.set(l+".cpu_share", share)
	}
	runRungs(r, p, serveRungs)
	if err := inprocSpans(r, p, out); err != nil {
		return nil, err
	}
	return r, nil
}

// spanSet is one request's timestamps, taken by the benchmark's hooks at
// the layer boundaries the serve package exposes: the classifier, the
// decision log (the end of decide), the inner handler, and the outer
// ServeHTTP. The spans are nested serve > {classify, decide, pre_handler,
// handler, finish} and share the request's index as identifier.
type spanSet struct {
	start, clsStart, clsEnd, decided, handler, end time.Time
}

// inprocSpans serves the table on one goroutine with the hooks on and
// reports each span's mean self time. One goroutine, so the comparison is
// with the serve.middleware_hardened_ns rung; what the hooks' six clock
// reads add is trace.overhead_frac.
func inprocSpans(r *result, p params, out io.Writer) error {
	n := int(inprocSpanned * p.scale)
	if n < tableSize {
		n = tableSize
	}
	spans := make([]spanSet, n)
	var cur *spanSet
	a, err := newAdmission(true, func(cfg *serve.Config) {
		cfg.Classify = func(req *http.Request) serve.Request {
			cur.clsStart = time.Now()
			sr := serve.ClassifyByHeader(req)
			cur.clsEnd = time.Now()
			return sr
		}
		cfg.DecisionLog = func(serve.Verdict) { cur.decided = time.Now() }
	})
	if err != nil {
		return err
	}
	h := a.Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { cur.handler = time.Now() }))
	table := requestTable(p.seed)
	rw := nopResponseWriter{h: make(http.Header)}
	cur = &spanSet{} // warm-up: p_admit settles before spans are kept
	for c := 0; c < 64; c++ {
		for _, req := range table {
			h.ServeHTTP(rw, req)
		}
	}
	for i := range spans {
		cur = &spans[i]
		cur.start = time.Now()
		h.ServeHTTP(rw, table[i&(tableSize-1)])
		cur.end = time.Now()
	}

	var classify, decide, pre, finish, total float64
	for i := range spans {
		s := &spans[i]
		classify += float64(s.clsEnd.Sub(s.clsStart))
		decide += float64(s.decided.Sub(s.clsEnd))
		pre += float64(s.handler.Sub(s.decided))
		finish += float64(s.end.Sub(s.handler))
		total += float64(s.end.Sub(s.start))
	}
	nn := float64(n)
	r.set("serve.classify_ns", classify/nn)
	r.set("serve.decide_ns", decide/nn)
	r.set("serve.pre_handler_ns", pre/nn)
	r.set("serve.finish_ns", finish/nn)
	r.set("serve.span_total_ns", total/nn)
	hardened := r.metrics["serve.middleware_hardened_ns"]
	if hardened > 0 {
		r.set("trace.overhead_frac", total/nn/hardened-1)
		fmt.Fprintf(out, "serve-inproc: spans sum to %.0f ns (classify+decide+pre_handler+finish) against %.0f ns untraced on one goroutine\n",
			(classify+decide+pre+finish)/nn, hardened)
	}
	return writeSpans(filepath.Join(buildDir(), "spans-serve-inproc.ndjson"), spans)
}

// writeSpans writes the first spans out once the run is over, one line
// per span with its request id and parent, for reading by hand.
func writeSpans(path string, spans []spanSet) error {
	if len(spans) > 4096 {
		spans = spans[:4096]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for id := range spans {
		s := &spans[id]
		t0 := s.start
		span := func(name, parent string, from, to time.Time) {
			fmt.Fprintf(w, `{"req":%d,"span":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				id, name, parent, from.Sub(t0).Nanoseconds(), to.Sub(t0).Nanoseconds())
		}
		span("serve", "", s.start, s.end)
		span("classify", "serve", s.clsStart, s.clsEnd)
		span("decide", "serve", s.clsEnd, s.decided)
		span("pre_handler", "serve", s.decided, s.handler)
		span("finish", "serve", s.handler, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
