// Command benchmark is the repository's benchmark: five workloads across
// the simulator and the live-serving path, the end-to-end metrics a later
// change may claim or must defend, and a traced run that breaks each
// workload's cost down by layer. BENCHMARK.json at the repository root
// names the same workloads and metrics; README.md in this directory says
// why each was chosen and how they interact.
//
//	bash benchmark/run.sh --workload sim-small-rpc --seed 1 --seconds 15 --trace 0
//	go run ./benchmark                 # every workload, untraced then traced
//	go run ./benchmark -selfcheck      # two full sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// params is what one workload run is given. The program under test sees
// none of it: it receives only the inputs generated from seed.
type params struct {
	seed    int64
	seconds float64
	// scale shrinks simulated durations, request counts and phase lengths
	// together; the smoke test runs at 0.02.
	scale float64
	trace bool
	// serveBin is the built cmd/aequitas-serve; workDir is scratch space
	// inside the checkout.
	serveBin string
	workDir  string
}

// measure is the host time a workload spends measuring.
func (p params) measure() time.Duration {
	return time.Duration(p.seconds * p.scale * float64(time.Second))
}

// result is one workload run: the contract's four keys plus the reasons a
// run is incorrect, which go to standard error.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	problems          []string
	// unmeasured are per-layer metrics this workload has no layer for;
	// they read 0 in the document and are left out of the printed list.
	unmeasured map[string]bool
	// hostNoise are validity checks that fail on a busy host rather than
	// on wrong output (the generator's pacing error). They make a run
	// incorrect like any problem; the smoke test alone tells them apart.
	hostNoise []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, unmeasured: map[string]bool{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) noisy(format string, args ...any) {
	r.hostNoise = append(r.hostNoise, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.problems)+len(r.hostNoise) == 0 }

// every lists all the reasons the run is incorrect.
func (r *result) every() []string { return append(append([]string{}, r.problems...), r.hostNoise...) }

var runners = map[string]func(string, params, io.Writer) (*result, error){
	"sim-large-rpc":        runSim,
	"sim-small-rpc":        runSim,
	"sim-observed-faulted": runSim,
	"serve-inproc":         runInproc,
	"serve-loopback":       runLoopback,
}

// runWorkload runs one workload and returns its result with exactly the
// metrics the mode calls for: every end-to-end metric untraced, every
// per-layer metric traced. A per-layer metric a workload has no such layer
// for reads 0.
func runWorkload(name string, p params, out io.Writer) (*result, error) {
	run, ok := runners[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	r, err := run(name, p, out)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	known := map[string]bool{}
	for _, m := range specsFor(p.trace) {
		known[m.Name] = true
		if _, ok := r.metrics[m.Name]; !ok {
			if !p.trace {
				return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", name, m.Name)
			}
			r.metrics[m.Name], r.unmeasured[m.Name] = 0, true
		}
	}
	for m := range r.metrics {
		if !known[m] {
			return nil, fmt.Errorf("%s: metric %s is not in the benchmark's list", name, m)
		}
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("%s: nothing attempted", name)
	}
	if r.failed > 0 {
		r.fail("%d of %d operations failed", r.failed, r.attempted)
	}
	return r, nil
}

// specsFor lists the metrics a run reports: end-to-end untraced,
// per-layer traced.
func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// document is the last line of standard output.
type document struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) document() document {
	d := document{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for name, v := range r.metrics {
		d.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	return d
}

// printMetrics lists a result by name with units, in the benchmark's order.
func printMetrics(out io.Writer, workload string, r *result, specs []metricSpec) {
	for _, m := range specs {
		if v, ok := r.metrics[m.Name]; ok && !r.unmeasured[m.Name] {
			fmt.Fprintf(out, "  %-24s %-34s %14.6g %s\n", workload, m.Name, v, m.Unit)
		}
	}
	for _, p := range r.every() {
		fmt.Fprintf(out, "  %-24s INCORRECT: %s\n", workload, p)
	}
}

func environment() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return fmt.Sprintf("environment: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q; serve-loopback crosses the host's loopback interface, not a real link",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu)
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the result document as the last line (default: all)")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", runSeconds, "host seconds each run measures for")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		scale     = flag.Float64("scale", 1, "shrink every workload (simulated time, requests, phases) by this factor")
		serveBin  = flag.String("serve-bin", "", "built cmd/aequitas-serve (default: build it under .bench_build/)")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare every end-to-end metric against its bound")
		spec      = flag.Bool("print-spec", false, "print BENCHMARK.json as this program defines it and exit")
		timeout   = flag.Duration("timeout", 170*time.Second, "abort one workload run after this long")
	)
	flag.Parse()
	if *spec {
		os.Stdout.Write(specJSON())
		return
	}
	if flag.NArg() > 0 || *scale <= 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(realMain(*workload, params{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1,
		serveBin: *serveBin}, *selfcheck, *timeout))
}

// realMain returns the exit code, so that its deferred clean-up (child
// processes, scratch directory) runs on every path out.
func realMain(workload string, p params, selfcheck bool, timeout time.Duration) (code int) {
	work, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	p.workDir = work
	defer os.RemoveAll(work)
	defer killChildren()

	// A signal or the timeout must not leave a server behind or its port
	// held: both paths kill every child before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	abort := func(why string) {
		fmt.Fprintln(os.Stderr, "benchmark:", why)
		killChildren()
		os.RemoveAll(work)
		os.Exit(1)
	}
	go func() { s := <-sig; abort("signal: " + s.String()) }()
	watchdog := time.AfterFunc(timeout, func() { abort("timeout after " + timeout.String()) })
	defer watchdog.Stop()

	out := os.Stdout
	fmt.Fprintln(out, environment())

	if workload != "" {
		r, err := runWorkload(workload, p, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printMetrics(out, workload, r, specsFor(p.trace))
		for _, pr := range r.every() {
			fmt.Fprintln(os.Stderr, "benchmark: incorrect:", pr)
		}
		line, err := json.Marshal(r.document())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(out, "%s\n", line)
		if !r.correct() {
			return 1
		}
		return 0
	}

	runSet := func(trace bool) (map[string]*result, bool) {
		set, ok := map[string]*result{}, true
		pp := p
		pp.trace = trace
		for _, w := range workloadNames() {
			watchdog.Reset(timeout)
			r, err := runWorkload(w, pp, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				ok = false
				continue
			}
			printMetrics(out, w, r, specsFor(trace))
			set[w] = r
			ok = ok && r.correct()
		}
		return set, ok
	}

	if selfcheck {
		a, okA := runSet(false)
		b, okB := runSet(false)
		if !compareSets(out, a, b) || !okA || !okB {
			return 1
		}
		return 0
	}

	untraced, ok1 := runSet(false)
	traced, ok2 := runSet(true)
	doc := map[string]map[string]document{}
	for _, w := range workloadNames() {
		doc[w] = map[string]document{}
		if r := untraced[w]; r != nil {
			doc[w]["end_to_end"] = r.document()
		}
		if r := traced[w]; r != nil {
			doc[w]["per_layer"] = r.document()
		}
	}
	line, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !ok1 || !ok2 {
		return 1
	}
	return 0
}

// compareSets is the noise self-check: the same code measured twice must
// agree within each metric's bound on every workload.
func compareSets(out io.Writer, a, b map[string]*result) bool {
	ok := true
	fmt.Fprintf(out, "selfcheck: second set against the first; a metric fails when it is worse by more than its bound\n")
	for _, w := range workloadNames() {
		ra, rb := a[w], b[w]
		if ra == nil || rb == nil {
			ok = false
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.metrics[m.Name], rb.metrics[m.Name]
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(out, "  %-24s %-20s %14.6g %14.6g  worse by %+8.4f of bound %.4f  %s\n",
				w, m.Name, va, vb, worse, m.Bound, verdict)
		}
	}
	return ok
}

// medianSetup calls setup until it has 9 samples and 300 ms of them, or
// 101 samples, and returns the median in seconds: a set-up of a fraction
// of a millisecond needs many samples before its median holds still.
func medianSetup(setup func() error) (float64, error) {
	var xs []float64
	var total time.Duration
	for len(xs) < 9 || (total < 300*time.Millisecond && len(xs) < 101) {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		xs = append(xs, d.Seconds())
	}
	return median(xs), nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// lowest is the smallest of xs, or 0 when there is none.
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

// quantile is the nearest-rank quantile of xs, which it sorts in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if q == 0.5 && len(xs)%2 == 0 {
		return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// selfCPU is this process's user plus system CPU time so far. GC workers
// on other cores count, which wall time per operation does not show.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
