package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aequitas"
	"aequitas/internal/obs"
	"aequitas/internal/obs/flight"
	"aequitas/serve"
)

// Pacing. time.Sleep(300us) returns after a median 1.09 ms on this class
// of host (the runtime's timers wake through epoll_wait, whole
// milliseconds), so the generator cannot sleep to a due time with it, and
// the server is started with -work 0 because its "work" is a time.Sleep.
// Spinning to the due time instead costs more than it fixes here: two
// spinning connections occupy both CPUs, the server waits for one, and
// p50 at 8000 req/s reads 142 us against a 67 us closed-loop round trip.
// So each connection's goroutine is locked to its thread, sets that
// thread's timer slack to 1 ns, sleeps in nanosleep(2) until spinMargin
// before the due time (median overshoot 13 us, p99 35 us) and spins only
// across the margin.
const spinMargin = 80 * time.Microsecond

// preciseSleeps locks the calling goroutine to its thread and removes the
// thread's default 50 us timer slack (prctl PR_SET_TIMERSLACK).
func preciseSleeps() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // on failure sleeps are coarser and sched_wait shows it
}

// Serving limits for the open-loop phases: a request meets its SLO when
// its due-to-done latency is inside the server's -slo for its class, and
// a rate is sustained when p99 stays under latencyLimit with no failure
// and no growing backlog.
const (
	serverSLO    = time.Millisecond
	latencyLimit = 2 * time.Millisecond
	gatedRate    = 8000 // req/s, the open-loop phase lat_p50_us is read from
	drainBudget  = 5 * time.Second
)

var openRates = []int{4000, 8000, 12000}

// children is every process this run started and has not yet reaped;
// killChildren is called on every exit path, panics and the watchdog
// included, so no server outlives the benchmark or keeps its port.
var (
	childMu  sync.Mutex
	children = map[*exec.Cmd]bool{}
)

func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for c := range children {
		c.Process.Kill()
		c.Wait()
		delete(children, c)
	}
}

// buildRoot is where build outputs and scratch files go: inside the
// checkout, ignored by git, and the directory the driver already uses for
// build output.
var buildRoot = ".bench_build"

func buildDir() string {
	os.MkdirAll(buildRoot, 0o755)
	return buildRoot
}

// buildServer compiles cmd/aequitas-serve from the checkout's source.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir(), "bin", "aequitas-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "aequitas/cmd/aequitas-serve")
	if outp, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build aequitas-serve: %v\n%s", err, outp)
	}
	return bin, nil
}

// server is one running aequitas-serve child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	flight string
	stderr bytes.Buffer
}

// startServer starts the child on a free loopback port and returns once it
// has answered a request with 200.
func startServer(bin, workDir string, n int) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{addr: addr, flight: filepath.Join(workDir, fmt.Sprintf("flight-%d.ndjson", n))}
	s.cmd = exec.Command(bin, "-mode", "server", "-addr", addr, "-work", "0", "-slo", serverSLO.String(),
		"-deadlines", "-brownout", "-quota-rate", "1e6", "-flight", s.flight, "-drain", drainBudget.String())
	s.cmd.Stderr = &s.stderr
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	childMu.Lock()
	children[s.cmd] = true
	childMu.Unlock()
	for {
		resp, err := http.Get("http://" + addr + "/ready-probe")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			s.kill()
			return nil, fmt.Errorf("server gave no 200 within 10 s: %v\n%s", err, s.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) kill() {
	childMu.Lock()
	defer childMu.Unlock()
	if children[s.cmd] {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		delete(children, s.cmd)
	}
}

// stop sends SIGTERM and checks the shutdown contract: exit status 0
// inside the drain budget and a schema-valid, non-empty flight dump.
func (s *server) stop() error {
	defer s.kill()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	waited := make(chan error, 1)
	go func() { waited <- s.cmd.Wait() }()
	select {
	case err := <-waited:
		childMu.Lock()
		delete(children, s.cmd)
		childMu.Unlock()
		if err != nil {
			return fmt.Errorf("server exit after SIGTERM: %v\n%s", err, s.stderr.String())
		}
	case <-time.After(drainBudget + time.Second):
		return fmt.Errorf("server still running %v after SIGTERM", drainBudget+time.Second)
	}
	f, err := os.Open(s.flight)
	if err != nil {
		return fmt.Errorf("flight dump: %w", err)
	}
	defer f.Close()
	dumps, records, err := flight.ValidateDump(f)
	if err != nil {
		return fmt.Errorf("flight dump invalid: %w", err)
	}
	if dumps == 0 || records == 0 {
		return fmt.Errorf("flight dump empty: %d dumps, %d records", dumps, records)
	}
	return nil
}

// cpu is the child's CPU time so far: the on-CPU nanoseconds of each of
// its threads from /proc/<pid>/task/*/schedstat, summed. /proc/<pid>/stat
// would do, but counts in 10 ms ticks, and a per-request figure made of a
// few dozen ticks takes the same handful of values run after run.
func (s *server) cpu() (time.Duration, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", s.cmd.Process.Pid, err)
	}
	var total time.Duration
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if fs := strings.Fields(string(b)); len(fs) > 0 {
			ns, err := strconv.ParseInt(fs[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", f, err)
			}
			total += time.Duration(ns)
		}
	}
	return total, nil
}

func (s *server) rssMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// scrape fetches /snapshot, the server's own counters and histograms.
func (s *server) scrape() (*obs.Snapshot, error) {
	resp, err := http.Get("http://" + s.addr + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("/snapshot: %w", err)
	}
	return &snap, nil
}

// checkMetrics requires /metrics to be a valid Prometheus exposition.
func (s *server) checkMetrics() error {
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := obs.ValidatePromText(resp.Body)
	if err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	if n == 0 {
		return fmt.Errorf("/metrics: no samples")
	}
	return nil
}

// wireRequest is one table entry as HTTP/1.1 bytes.
type wireRequest struct {
	bytes []byte
	high  bool // asks for QoSh
}

func wireTable(seed int64, host string) []wireRequest {
	es := requestEntries(seed)
	ws := make([]wireRequest, len(es))
	for i, e := range es {
		var b bytes.Buffer
		fmt.Fprintf(&b, "GET /backend HTTP/1.1\r\nHost: %s\r\n%s: %s\r\n%s: %s\r\n",
			host, serve.HeaderPeer, e.peer, serve.HeaderClass, e.class)
		if e.deadline {
			fmt.Fprintf(&b, "%s: 50ms\r\n", serve.HeaderDeadline)
		}
		b.WriteString("\r\n")
		ws[i] = wireRequest{bytes: b.Bytes(), high: e.class == aequitas.High}
	}
	return ws
}

// sample is one completed request as the client saw it.
type sample struct {
	due, sent, done time.Duration // since the phase began
	idleFrom        time.Duration // when the connection became free for this request
	high, failed    bool
}

// phase is one load phase's outcome.
type phase struct {
	elapsed  time.Duration
	samples  []sample
	failures []string
	// cpu is the server's CPU time read once a second through the phase.
	cpu []cpuReading
}

type cpuReading struct{ at, cpu time.Duration }

// conn is one keep-alive HTTP/1.1 connection driven synchronously: write
// the request bytes, read one response. No client goroutines or pools
// sit between the generator and the socket, and the socket is in blocking
// mode, so the reply wakes the waiting thread directly instead of going
// through the runtime's poller and a second wake-up.
type conn struct {
	c  *os.File
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	f, err := nc.(*net.TCPConn).File() // a blocking-mode duplicate
	if err != nil {
		return nil, err
	}
	return &conn{c: f, br: bufio.NewReader(f)}, nil
}

// do sends one request and checks the reply: a 200 carrying
// X-Aequitas-Class. Which class it ran on is the server's to decide and
// is read from the server's own counters.
func (c *conn) do(w *wireRequest) error {
	if _, err := c.c.Write(w.bytes); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if resp.Header.Get(serve.HeaderClass) == "" {
		return fmt.Errorf("response without %s", serve.HeaderClass)
	}
	return nil
}

// waitUntil returns once the phase clock reaches due.
func waitUntil(t0 time.Time, due time.Duration) {
	for {
		left := due - time.Since(t0)
		if left <= 0 {
			return
		}
		if left > spinMargin {
			ts := syscall.NsecToTimespec(int64(left - spinMargin))
			syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
		}
	}
}

// runPhase drives the server for d over one connection per CPU. rate 0 is
// a closed loop: each connection sends its next request when the reply
// arrives. Otherwise request k of the phase is due at k/rate on an
// absolute schedule, connections take requests in turn, and latency runs
// from the due time, so a stall is charged to every request it delays.
func runPhase(srv *server, table []wireRequest, rate int, d time.Duration) (*phase, error) {
	addr := srv.addr
	workers := runtime.NumCPU()
	conns := make([]*conn, workers)
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			c.c.Close()
		}
	}()
	results := make([]phase, workers)
	out := &phase{}
	var wg sync.WaitGroup
	t0 := time.Now()
	stopCPU, cpuDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(cpuDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for stopped := false; ; {
			if c, err := srv.cpu(); err == nil {
				out.cpu = append(out.cpu, cpuReading{time.Since(t0), c})
			}
			if stopped {
				return
			}
			select {
			case <-tick.C:
			case <-stopCPU:
				stopped = true // one last reading closes the final window
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if rate > 0 {
				preciseSleeps()
				defer runtime.UnlockOSThread()
			}
			ph, c := &results[w], conns[w]
			var free time.Duration
			for k := w; ; k += workers {
				var due time.Duration
				if rate > 0 {
					due = time.Duration(float64(k) / float64(rate) * float64(time.Second))
					if due >= d {
						return
					}
					waitUntil(t0, due)
				} else if time.Since(t0) >= d {
					return
				}
				req := &table[k&(tableSize-1)]
				sent := time.Since(t0)
				if rate == 0 {
					due = sent
				}
				err := c.do(req)
				done := time.Since(t0)
				if err != nil {
					if len(ph.failures) < 8 {
						ph.failures = append(ph.failures, err.Error())
					}
					ph.samples = append(ph.samples, sample{due: due, sent: sent, done: done, idleFrom: free, failed: true})
					// The connection's framing is unknown after an error.
					nc, derr := dial(addr)
					if derr != nil {
						ph.failures = append(ph.failures, derr.Error())
						return
					}
					c.c.Close()
					c = nc
					conns[w] = nc
					free = time.Since(t0)
					continue
				}
				ph.samples = append(ph.samples, sample{due: due, sent: sent, done: done, idleFrom: free, high: req.high})
				free = done
			}
		}(w)
	}
	wg.Wait()
	out.elapsed = time.Since(t0)
	close(stopCPU)
	<-cpuDone
	for i := range results {
		out.samples = append(out.samples, results[i].samples...)
		out.failures = append(out.failures, results[i].failures...)
	}
	return out, nil
}

func (ph *phase) failed() int64 {
	var n int64
	for _, s := range ph.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// completionsBetween counts requests that finished in [from, to).
func (ph *phase) completionsBetween(from, to time.Duration) float64 {
	var n float64
	for _, s := range ph.samples {
		if !s.failed && s.done >= from && s.done < to {
			n++
		}
	}
	return n
}

// window is the slice of a phase a host-time figure is taken over. The
// host's interference comes in bursts of tens of milliseconds to seconds
// and only ever slows a slice down: twelve 9 s phases at 8000 req/s, eight
// of them on a disturbed host, had whole-phase p50 latencies of 147-344 us
// and best-window p50 latencies of 145-199 us, against 145-147 us for the
// calm four. So the latencies reported are the least disturbed half
// second's; rates and tail metrics are the whole phase's.
const window = 500 * time.Millisecond

// bestP50US is the lowest of the windows' median due-to-done latencies,
// windows taken by due time.
func (ph *phase) bestP50US() float64 {
	byWindow := map[int][]float64{}
	for _, s := range ph.samples {
		if !s.failed {
			i := int(s.due / window)
			byWindow[i] = append(byWindow[i], float64(s.done-s.due)/1e3)
		}
	}
	var medians []float64
	for i, xs := range byWindow {
		if time.Duration(i+1)*window <= ph.elapsed || len(byWindow) == 1 {
			medians = append(medians, median(xs))
		}
	}
	return lowest(medians)
}

// serverCPUPerReqUS is the server's CPU time per completed request: the
// median over the one-second windows between CPU readings. CPU time is
// not stretched by waiting as latency is, so the median window serves. A
// phase with no whole window reports the figure over the whole phase.
func (ph *phase) serverCPUPerReqUS() float64 {
	perReq := func(a, b cpuReading) (float64, bool) {
		n := ph.completionsBetween(a.at, b.at)
		return float64((b.cpu - a.cpu).Microseconds()) / n, n > 0
	}
	var xs []float64
	for i := 1; i < len(ph.cpu); i++ {
		if a, b := ph.cpu[i-1], ph.cpu[i]; b.at-a.at >= 900*time.Millisecond {
			if x, ok := perReq(a, b); ok {
				xs = append(xs, x)
			}
		}
	}
	if len(xs) == 0 && len(ph.cpu) > 1 {
		x, _ := perReq(ph.cpu[0], ph.cpu[len(ph.cpu)-1])
		return x
	}
	return median(xs)
}

// latenciesUS is due-to-done latency of the completed requests.
func (ph *phase) latenciesUS() []float64 {
	var xs []float64
	for _, s := range ph.samples {
		if !s.failed {
			xs = append(xs, float64(s.done-s.due)/1e3)
		}
	}
	return xs
}

// schedWaitUS is how late the generator itself sent each request: from
// the later of its due time and the moment its connection became free to
// the send. Waiting for a slow reply is the server's lateness and is in
// the latency; this is the pacing error.
func (ph *phase) schedWaitUS() []float64 {
	var xs []float64
	for _, s := range ph.samples {
		if !s.failed {
			from := s.due
			if s.idleFrom > from {
				from = s.idleFrom
			}
			xs = append(xs, float64(s.sent-from)/1e3)
		}
	}
	return xs
}

// offeredHigh counts the QoSh requests a phase sent, failed ones included
// (the class of a failed request no longer matters: it missed).
func (ph *phase) offeredHigh() float64 {
	var n float64
	for _, s := range ph.samples {
		if s.high || s.failed {
			n++
		}
	}
	return n
}

// sustained reports whether an open-loop phase met the serving limit: no
// failure, p99 inside latencyLimit, and requests sent no later against
// their due times in the last second than in the first (plus 1 ms of
// slack), which is what a growing backlog would show.
func (ph *phase) sustained() bool {
	if len(ph.failures) > 0 || len(ph.samples) == 0 {
		return false
	}
	if quantile(ph.latenciesUS(), 0.99) > float64(latencyLimit)/1e3 {
		return false
	}
	lateness := func(from, to time.Duration) float64 {
		var sum, n float64
		for _, s := range ph.samples {
			if s.due >= from && s.due < to {
				sum += float64(s.sent - s.due)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / n
	}
	first := lateness(0, time.Second)
	last := lateness(ph.elapsed-time.Second, ph.elapsed)
	return last <= first+float64(time.Millisecond)
}

// histGain is what one class's cumulative latency histogram gained
// between two /snapshot scrapes: the server's own record of the requests
// in between.
type histGain struct {
	upper []float64 // bucket upper bounds, us
	cum   []int64   // observations gained at or below each bound
	total int64
}

func newHistGain(before, after *obs.Snapshot, class string) histGain {
	find := func(s *obs.Snapshot) *obs.HistSnapshot {
		for i := range s.Hists {
			if s.Hists[i].LabelVal == class {
				return &s.Hists[i]
			}
		}
		return nil
	}
	var g histGain
	a := find(after)
	if a == nil {
		return g
	}
	g.total = a.Count
	var prev []obs.HistBucket
	if b := find(before); b != nil {
		g.total -= b.Count
		prev = b.Buckets
	}
	// Both bucket lists ascend; a bound the earlier scrape lacks had
	// gained nothing beyond the bound before it.
	var was int64
	for _, bk := range a.Buckets {
		for len(prev) > 0 && prev[0].Upper <= bk.Upper {
			was, prev = prev[0].Count, prev[1:]
		}
		g.upper = append(g.upper, bk.Upper)
		g.cum = append(g.cum, bk.Count-was)
	}
	return g
}

// p50 is the gained observations' median, to the histogram's resolution.
func (g histGain) p50() float64 {
	for i, c := range g.cum {
		if 2*c >= g.total {
			return g.upper[i]
		}
	}
	return 0
}

// within counts gained observations in buckets wholly at or below limit.
func (g histGain) within(limit float64) int64 {
	var n int64
	for i, u := range g.upper {
		if u <= limit {
			n = g.cum[i]
		}
	}
	return n
}

func runLoopback(_ string, p params, out io.Writer) (*result, error) {
	r := newResult()
	bin := p.serveBin
	if bin == "" {
		var err error
		if bin, err = buildServer(); err != nil {
			return nil, err
		}
	}

	// Set-up, several times: start the server, wait for its first 200,
	// build the request table; then stop it with SIGTERM and check the
	// shutdown contract. The last server stays up for the load.
	var (
		setups []float64
		srv    *server
		table  []wireRequest
	)
	const starts = 5
	for i := 0; i < starts; i++ {
		t0 := time.Now()
		s, err := startServer(bin, p.workDir, i)
		if err != nil {
			return nil, err
		}
		table = wireTable(p.seed, s.addr)
		setups = append(setups, time.Since(t0).Seconds())
		if i < starts-1 {
			// A request first, so the flight ring has something to dump.
			if ph, err := runPhase(s, table, 0, 20*time.Millisecond); err != nil || len(ph.failures) > 0 {
				s.kill()
				return nil, fmt.Errorf("probe load failed: %v %v", err, ph)
			}
			if err := s.stop(); err != nil {
				r.fail("%v", err)
			}
			continue
		}
		srv = s
	}
	defer srv.kill()

	// Warm-up: connections, the server's channels and heap.
	if _, err := runPhase(srv, table, 0, time.Duration(float64(500*time.Millisecond)*p.scale)); err != nil {
		return nil, err
	}

	budget := p.measure()
	type plan struct {
		rate int
		d    time.Duration
	}
	// Untraced: closed loop, then the gated rate. Traced: a short closed
	// loop, then each fixed rate.
	plans := []plan{{0, budget * 2 / 5}, {gatedRate, budget * 3 / 5}}
	if p.trace {
		plans = []plan{{0, budget / 4}}
		for _, rate := range openRates {
			plans = append(plans, plan{rate, budget / 4})
		}
	}

	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	phases := map[int]*phase{}
	var closedClientCPU time.Duration
	for _, pl := range plans {
		cpu0 := selfCPU()
		ph, err := runPhase(srv, table, pl.rate, pl.d)
		if err != nil {
			return nil, err
		}
		if pl.rate == 0 {
			closedClientCPU = selfCPU() - cpu0
		}
		phases[pl.rate] = ph
		r.attempted += int64(len(ph.samples))
		r.failed += ph.failed()
		for _, f := range ph.failures {
			r.fail("rate %d: %s", pl.rate, f)
		}
	}
	runtime.ReadMemStats(&m1)
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	if err := srv.checkMetrics(); err != nil {
		r.fail("%v", err)
	}
	rss := srv.rssMB()
	if err := srv.stop(); err != nil {
		r.fail("%v", err)
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no request completed")
	}

	closed, gated := phases[0], phases[gatedRate]
	closedDone := float64(int64(len(closed.samples)) - closed.failed())
	rps := closedDone / closed.elapsed.Seconds()
	// A connection's time per request in the closed loop, at the median of
	// the best window, shared among the connections: what the mean rate
	// says when nothing stalls. The mean rate itself swings between 19 k
	// and 31 k req/s on a disturbed host and is loopback.rps_closed.
	nsPerOp := closed.bestP50US() * 1e3 / float64(runtime.NumCPU())
	cpuPerReq := gated.serverCPUPerReqUS()
	latP50 := gated.bestP50US()
	schedP99 := quantile(gated.schedWaitUS(), 0.99)
	// The run is invalid when the generator, not the server, made requests
	// late. Half of p50 at the 99th percentile is the line: nanosleep's own
	// p99 overshoot is 35 us here, so a fifth of p50 (28 us) would fail
	// sound runs, and the median pacing error is under 2 us.
	if schedP99 > 0.5*latP50 {
		r.noisy("generator ran late: pacing error p99 %.1f us exceeds half of lat_p50_us %.1f us at %d req/s", schedP99, latP50, gatedRate)
	}
	fmt.Fprintf(out, "serve-loopback: %d requests over %d connections; closed loop %.0f req/s; at %d req/s p50 %.1f us, p99 %.1f us, pacing error p99 %.1f us (n=%d)\n",
		r.attempted, runtime.NumCPU(), rps, gatedRate, latP50, quantile(gated.latenciesUS(), 0.99), schedP99, len(gated.samples))

	if !p.trace {
		// SLO compliance as the server's controller saw it, the definition
		// serve-inproc uses: QoSh completions whose handler latency was
		// inside the 1 ms SLO, from the middleware's histogram.
		qoshRan := newHistGain(before, after, aequitas.High.String())
		met := float64(qoshRan.within(float64(serverSLO.Microseconds())))
		var offered float64
		for _, ph := range phases {
			offered += ph.offeredHigh()
		}
		if qoshRan.total == 0 || offered == 0 {
			return nil, fmt.Errorf("no QoSh completion in the server's histograms")
		}
		r.set("setup_s", median(setups))
		r.set("ns_per_op", nsPerOp)
		r.set("cpu_us_per_op", cpuPerReq)
		r.set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(r.attempted))
		r.set("pc_slo_met_frac", met/offered)
		r.set("qosh_slo_met_frac", met/float64(qoshRan.total))
		r.set("lat_p50_us", latP50)
		return r, nil
	}

	var atLimit float64
	for _, rate := range openRates {
		if phases[rate].sustained() {
			atLimit = float64(rate)
		}
	}
	var rtts []float64
	for _, s := range closed.samples {
		if !s.failed {
			rtts = append(rtts, float64(s.done-s.sent)/1e3)
		}
	}
	rtt := median(rtts)
	handler := newHistGain(before, after, aequitas.High.String()).p50()
	gatedLat := gated.latenciesUS()
	r.set("loopback.rps_closed", rps)
	r.set("loopback.rate_at_limit_rps", atLimit)
	r.set("loopback.sched_wait_p99_us", schedP99)
	r.set("loopback.rtt_p50_us", rtt)
	r.set("loopback.lat_p99_us", quantile(gatedLat, 0.99))
	r.set("loopback.lat_p999_us", quantile(gatedLat, 0.999))
	r.set("loopback.lat_p50_us_r4000", phases[4000].bestP50US())
	r.set("loopback.lat_p50_us_r12000", phases[12000].bestP50US())
	r.set("server.handler_p50_us", handler)
	r.set("loopback.http_overhead_p50_us", rtt-handler)
	r.set("loopback.client_cpu_us_per_req", float64(closedClientCPU.Microseconds())/closedDone)
	r.set("server.rss_mb", rss)
	// Nothing is switched on in the server for the traced run; the spans
	// are the client's own timestamps, already taken untraced.
	r.set("trace.overhead_frac", 0)
	return r, nil
}
