package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"aequitas"
	"aequitas/internal/obs/flight"
)

// countingWriter stands in for the files an instrumented run would write:
// the observability stack formats and emits every byte, the bytes are
// counted and dropped, and no disk speed enters the measurement.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// simShape is a sim workload's fixed size: the simulated time of one rep
// at scale 1 and the host seconds such a rep takes at the seed state. The
// simulated time is never derived from -seconds, because the exact
// simulated metrics depend on it; -seconds only decides how many reps run.
var simShape = map[string]struct {
	simulated  time.Duration
	repSeconds float64
}{
	"sim-large-rpc": {40 * time.Millisecond, 3.5},
	// One-MTU RPCs arrive 23x as often as 32 KB ones; 20 ms completes
	// ~0.9 M of them per rep.
	"sim-small-rpc":        {20 * time.Millisecond, 3.5},
	"sim-observed-faulted": {24 * time.Millisecond, 4.5},
}

func simDuration(workload string, scale float64) time.Duration {
	d := time.Duration(float64(simShape[workload].simulated) * scale)
	if d < 500*time.Microsecond {
		d = 500 * time.Microsecond
	}
	return d
}

// simSeeds are the sub-seeds of one run's reps: as many distinct ones as
// fit the time budget, then the first again. Each rep is an independent
// realisation, so the simulated metrics, averaged over the distinct
// sub-seeds, vary less from seed to seed than one realisation does; the
// repeated sub-seed is the determinism check. The count depends only on
// the arguments, never on how fast the host is, so the simulated metrics
// are an exact function of (-seed, -seconds, -scale).
func simSeeds(workload string, p params) []int64 {
	distinct := int(p.seconds / simShape[workload].repSeconds)
	if distinct < 1 || p.trace {
		distinct = 1 // the traced run spends its time on the profile and the rungs
	}
	var seeds []int64
	for i := 0; i < distinct; i++ {
		seeds = append(seeds, p.seed*1009+int64(i))
	}
	return append(seeds, seeds[0])
}

// simConfig builds the generated input of one sim workload. sinks is
// non-nil only for the observed workload; a fresh set is made per rep so
// obs.bytes_out_per_rpc is that rep's output alone.
func simConfig(workload string, seed int64, scale float64) (aequitas.SimConfig, *countingWriter, error) {
	dur := simDuration(workload, scale)
	cfg := aequitas.SimConfig{
		System:     aequitas.SystemAequitas,
		Hosts:      8,
		Seed:       seed,
		Duration:   dur,
		QoSWeights: []float64{8, 4, 1},
	}
	traffic := func(pc, nc, be aequitas.TrafficClass) []aequitas.HostTraffic {
		pc.Priority, pc.Share = aequitas.PC, 0.5
		nc.Priority, nc.Share = aequitas.NC, 0.3
		be.Priority, be.Share = aequitas.BE, 0.2
		return []aequitas.HostTraffic{{
			AvgLoad: 0.8, BurstLoad: 1.4,
			Classes: []aequitas.TrafficClass{pc, nc, be},
		}}
	}
	fixed := func(n int64) aequitas.TrafficClass { return aequitas.TrafficClass{FixedBytes: n} }
	switch workload {
	case "sim-large-rpc":
		cfg.SLOs = []aequitas.SLO{
			{Target: 25 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9},
			{Target: 50 * time.Microsecond, ReferenceBytes: 32 << 10, Percentile: 99.9},
		}
		cfg.Traffic = traffic(fixed(32<<10), fixed(32<<10), fixed(32<<10))
		return cfg, nil, nil
	case "sim-small-rpc":
		cfg.SLOs = []aequitas.SLO{
			{Target: 15 * time.Microsecond, ReferenceBytes: 1436, Percentile: 99.9},
			{Target: 25 * time.Microsecond, ReferenceBytes: 1436, Percentile: 99.9},
		}
		cfg.Traffic = traffic(fixed(1436), fixed(1436), fixed(1436))
		return cfg, nil, nil
	case "sim-observed-faulted":
		// A non-blocking core (two 200 G spines for four 100 G hosts per
		// leaf) and per-MTU SLOs as in the paper's production-size runs:
		// with the 32 KB-referenced targets above, one-MTU RPCs could never
		// meet theirs and p_admit would sit at the floor.
		cfg.Leaves, cfg.Spines, cfg.SpineLinkRate = 2, 2, 200e9
		cfg.SLOs = []aequitas.SLO{
			{Target: 20 * time.Microsecond, Percentile: 99.9},
			{Target: 40 * time.Microsecond, Percentile: 99.9},
		}
		cfg.Traffic = traffic(
			aequitas.TrafficClass{Size: aequitas.ProductionPCSizes()},
			aequitas.TrafficClass{Size: aequitas.ProductionNCSizes()},
			aequitas.TrafficClass{Size: aequitas.ProductionBESizes()},
		)
		plan, err := aequitas.FaultPreset("flap", dur)
		if err != nil {
			return cfg, nil, err
		}
		cfg.Faults = plan
		// Long enough that a 16 MB scavenger RPC under overload finishes
		// inside it: at 5 ms, 70 % of RPCs time out, retries feed the
		// overload and some seeds exhaust the retry budget.
		cfg.Retry = aequitas.RetryParams{Timeout: 8 * time.Millisecond, MaxRetries: 3}
		sink := &countingWriter{}
		cfg.TraceWriter = aequitas.NewCSVTrace(sink)
		cfg.Obs = aequitas.ObsConfig{
			MetricsCSV:     sink,
			TailSeries:     true,
			AttributionCSV: sink,
			Audit:          true,
			FlightNDJSON:   sink,
			FlightEngine:   &flight.EngineConfig{},
		}
		return cfg, sink, nil
	}
	return cfg, nil, fmt.Errorf("not a sim workload: %q", workload)
}

// simRep is one timed aequitas.Run with its host-side costs.
type simRep struct {
	res        *aequitas.Results
	wallNS     float64
	cpuUS      float64
	mallocs    float64
	allocBytes float64
	obsBytes   int64
}

// runSimRep times one Run. The collection before the clock starts puts
// every rep on the same heap state, so a rep does not pay for the garbage
// of the one before it.
func runSimRep(workload string, seed int64, scale float64) (simRep, error) {
	cfg, sink, err := simConfig(workload, seed, scale)
	if err != nil {
		return simRep{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := selfCPU()
	t0 := time.Now()
	res, err := aequitas.Run(cfg)
	wall := time.Since(t0)
	cpu1 := selfCPU()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return simRep{}, err
	}
	rep := simRep{
		res:        res,
		wallNS:     float64(wall.Nanoseconds()),
		cpuUS:      float64((cpu1 - cpu0).Microseconds()),
		mallocs:    float64(m1.Mallocs - m0.Mallocs),
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
	}
	if sink != nil {
		rep.obsBytes = sink.n
	}
	return rep, nil
}

// simDigest is the determinism fingerprint: every rep of one seed must
// produce the same string, exact simulated metrics included.
func simDigest(r *aequitas.Results) string {
	return fmt.Sprintf("issued=%d completed=%d downgraded=%d events=%d packets=%d mix=%v pc=%v qosh=%v p999=%v p50=%v",
		r.Issued, r.Completed, r.Downgraded, r.EventsProcessed, r.PacketsDelivered, r.AdmittedMix,
		r.SLOMetBytesFraction[aequitas.PC], r.SLOMetRunBytesFraction[aequitas.High],
		r.RNLQuantileUS(aequitas.High, 0.999), r.RNLQuantileUS(aequitas.High, 0.5))
}

// simSetup times what a Run does before its first event: config
// validation, fabric, hosts, generators, samplers and sinks. A run of the
// shortest legal length is that construction plus a negligible tail.
func simSetup(workload string, seed int64) error {
	cfg, _, err := simConfig(workload, seed, 1)
	if err != nil {
		return err
	}
	cfg.Duration = 2 * time.Microsecond
	cfg.Warmup = time.Microsecond
	if cfg.Faults != nil {
		if cfg.Faults, err = aequitas.FaultPreset("flap", cfg.Duration); err != nil {
			return err
		}
	}
	_, err = aequitas.Run(cfg)
	return err
}

func runSim(workload string, p params, out io.Writer) (*result, error) {
	r := newResult()

	setupS, err := medianSetup(func() error { return simSetup(workload, p.seed) })
	if err != nil {
		return nil, err
	}

	seeds := simSeeds(workload, p)
	var reps []simRep
	for _, seed := range seeds {
		rep, err := runSimRep(workload, seed, p.scale)
		if err != nil {
			return nil, err
		}
		if rep.res.Completed == 0 {
			return nil, fmt.Errorf("seed %d: no RPC completed", seed)
		}
		reps = append(reps, rep)
	}
	last := len(reps) - 1
	digest := simDigest(reps[0].res)
	if d := simDigest(reps[last].res); d != digest {
		r.fail("two runs of sub-seed %d differ:\n  %s\n  %s", seeds[0], digest, d)
	}
	// Host costs: median over every rep of the per-RPC figure. Simulated
	// results: mean over the distinct sub-seeds.
	per := func(f func(simRep) float64) float64 {
		var xs []float64
		for _, rep := range reps {
			xs = append(xs, f(rep)/float64(rep.res.Completed))
		}
		return median(xs)
	}
	mean := func(f func(*aequitas.Results) float64) float64 {
		var sum float64
		for _, rep := range reps[:last] {
			sum += f(rep.res)
		}
		return sum / float64(last)
	}
	nsPerOp := per(func(s simRep) float64 { return s.wallNS })
	for _, rep := range reps[:last] {
		res := rep.res
		r.attempted += res.Issued
		r.failed += res.Dropped + res.Terminated + res.FailedRPCs + res.CrashLostRPCs
		if res.RawGoodputRatio > 1.0000001 {
			r.fail("goodput ratio %v > 1: completions credited outside the offered window", res.RawGoodputRatio)
		}
	}
	first := reps[0].res
	done := float64(first.Completed)
	fmt.Fprintf(out, "%s: %d reps of %v simulated over %d sub-seeds, %d RPCs completed in the first, digest %s\n",
		workload, len(reps), simDuration(workload, p.scale), last, first.Completed, digest)
	fmt.Fprintf(out, "%s: ns per RPC by rep:", workload)
	for _, rep := range reps {
		fmt.Fprintf(out, " %.0f", rep.wallNS/float64(rep.res.Completed))
	}
	fmt.Fprintln(out)

	if !p.trace {
		r.set("setup_s", setupS)
		r.set("ns_per_op", nsPerOp)
		r.set("cpu_us_per_op", per(func(s simRep) float64 { return s.cpuUS }))
		r.set("allocs_per_op", per(func(s simRep) float64 { return s.mallocs }))
		r.set("pc_slo_met_frac", mean(func(r *aequitas.Results) float64 { return r.SLOMetBytesFraction[aequitas.PC] }))
		r.set("qosh_slo_met_frac", mean(func(r *aequitas.Results) float64 { return r.SLOMetRunBytesFraction[aequitas.High] }))
		r.set("lat_p50_us", mean(func(r *aequitas.Results) float64 { return r.RNLQuantileUS(aequitas.High, 0.5) }))
		return r, nil
	}

	// Traced run: exact counts from Results, the CPU profile of one more
	// rep, and the rungs this workload's cost is made of.
	r.set("results.qosh_p999_rnl_us", first.RNLQuantileUS(aequitas.High, 0.999))
	r.set("results.qosh_samples", float64(first.RNLRun[aequitas.High].N))
	r.set("sim.events_per_rpc", float64(first.EventsProcessed)/done)
	r.set("netsim.packets_per_rpc", float64(first.PacketsDelivered)/done)
	r.set("sim.events_per_s", float64(first.EventsProcessed)/(nsPerOp*done/1e9))
	r.set("core.downgraded_frac", float64(first.Downgraded)/float64(first.Issued))
	r.set("rpc.retried_per_rpc", float64(first.Retried)/done)
	r.set("rpc.timed_out_per_rpc", float64(first.TimedOut)/done)
	r.set("obs.bytes_out_per_rpc", float64(reps[0].obsBytes)/done)

	var traced simRep
	shares, err := cpuShares(func() error {
		var err error
		traced, err = runSimRep(workload, seeds[0], p.scale)
		return err
	})
	if err != nil {
		return nil, err
	}
	if d := simDigest(traced.res); d != digest {
		r.fail("profiled rep differs from untraced reps: %s", d)
	}
	for layer, share := range shares {
		r.set(layer+".cpu_share", share)
	}
	r.set("trace.overhead_frac", traced.wallNS/done/nsPerOp-1)
	r.set("runtime.alloc_bytes_per_rpc", per(func(s simRep) float64 { return s.allocBytes }))

	switch workload {
	case "sim-large-rpc":
		runRungs(r, p, packetRungs)
	case "sim-small-rpc":
		runRungs(r, p, perRPCRungs)
	}
	return r, nil
}
