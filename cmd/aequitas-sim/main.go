// Command aequitas-sim runs one configurable simulation and prints its
// measurements: per-QoS RNL percentiles, admitted QoS-mix, SLO
// compliance, and utilisation. It is the general-purpose front end to the
// simulator; cmd/figures drives the specific paper experiments.
//
// Example — the paper's 33-node overload with and without Aequitas:
//
//	aequitas-sim -hosts 33 -system aequitas -mix 0.6,0.3,0.1 \
//	    -load 0.8 -burst 1.4 -slo-high 25us -slo-med 50us -dur 100ms
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"aequitas"
	"aequitas/internal/obs"
)

func main() {
	var names []string
	for _, s := range aequitas.Systems() {
		names = append(names, s.String())
	}
	var (
		system   = flag.String("system", "aequitas", "system: "+strings.Join(names, "|"))
		hosts    = flag.Int("hosts", 12, "number of hosts")
		dur      = flag.Duration("dur", 40*time.Millisecond, "simulated duration")
		seed     = flag.Int64("seed", 1, "random seed")
		load     = flag.Float64("load", 0.8, "average offered load per host (fraction of link rate)")
		burst    = flag.Float64("burst", 1.4, "burst load rho (0 = unmodulated)")
		mixStr   = flag.String("mix", "0.5,0.3,0.2", "input QoS mix: PC,NC,BE byte shares")
		pattern  = flag.String("pattern", "uniform", "traffic pattern: uniform | incast[:FANIN] | permutation | hotspot:HOT:SHARE")
		shape    = flag.String("load-shape", "constant", "load shape: constant | step:AT:FACTOR | ramp:FROM:TO:FACTOR | onoff:PERIOD:DUTY")
		rpcBytes = flag.Int64("rpc-bytes", 32<<10, "fixed RPC size; 0 = production-shaped distributions")
		sloHigh  = flag.Duration("slo-high", 25*time.Microsecond, "QoSh RNL SLO")
		sloMed   = flag.Duration("slo-med", 50*time.Microsecond, "QoSm RNL SLO")
		sloRef   = flag.Int64("slo-ref-bytes", 32<<10, "RPC size the SLOs refer to (0 = per MTU)")
		alpha    = flag.Float64("alpha", 0.01, "admit probability additive increment")
		beta     = flag.Float64("beta", 0.01, "admit probability decrement per MTU per miss")
		weights  = flag.String("weights", "8,4,1", "WFQ weights, highest class first")
		trace    = flag.String("trace", "", "write the RPC lifecycle event trace (NDJSON) to this file")
		traceCSV = flag.String("trace-csv", "", "write a per-RPC completion CSV trace to this file")
		metrics  = flag.String("metrics", "", "write the periodic metrics time series (CSV) to this file")
		flightF  = flag.String("flight", "", "write flight-recorder dumps (NDJSON) to this file: one per fault onset plus a final dump")
		tailTS   = flag.Bool("tail", false, "add per-(dst,class) windowed RNL tail quantiles to -metrics")
		attrib   = flag.Bool("attribution", false, "decompose each RPC's latency and print per-class mean breakdowns")
		attrCSV  = flag.String("attribution-csv", "", "write the per-RPC latency decomposition (CSV) to this file")
		audit    = flag.Bool("audit", false, "audit observed queueing against the per-class theory bounds")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		faultS   = flag.String("faults", "", "fault plan: preset ("+strings.Join(aequitas.FaultPresetNames(), "|")+") or a file in the fault-plan grammar (README \"Fault plans\"; link and host kinds only)")
		rTimeout = flag.Duration("rpc-timeout", 0, "per-attempt RPC timeout (0 = no timeouts/retries)")
		rRetries = flag.Int("rpc-retries", 3, "retry budget per RPC once -rpc-timeout is set")
		rHedge   = flag.Duration("rpc-hedge-after", 0, "issue a hedged duplicate on the scavenger class after this delay (0 = off)")
	)
	flag.Parse()

	if *cpuProf != "" {
		stop, err := obs.StartCPUProfile(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				log.Print(err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProf); err != nil {
				log.Print(err)
			}
		}()
	}

	sys := aequitas.System(slices.Index(names, *system))
	if sys < 0 {
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}
	mix, err := parseFloats(*mixStr)
	if err != nil || len(mix) != 3 {
		log.Fatalf("bad -mix %q", *mixStr)
	}
	w, err := parseFloats(*weights)
	if err != nil {
		log.Fatalf("bad -weights %q", *weights)
	}

	classes := make([]aequitas.TrafficClass, 0, 3)
	for i, pr := range []aequitas.Priority{aequitas.PC, aequitas.NC, aequitas.BE} {
		tc := aequitas.TrafficClass{Priority: pr, Share: mix[i]}
		if *rpcBytes > 0 {
			tc.FixedBytes = *rpcBytes
		} else {
			switch pr {
			case aequitas.PC:
				tc.Size = aequitas.ProductionPCSizes()
			case aequitas.NC:
				tc.Size = aequitas.ProductionNCSizes()
			default:
				tc.Size = aequitas.ProductionBESizes()
			}
		}
		classes = append(classes, tc)
	}

	cfg := aequitas.SimConfig{
		System:     sys,
		Hosts:      *hosts,
		Seed:       *seed,
		Duration:   *dur,
		QoSWeights: w,
	}
	if *traceCSV != "" {
		f := mustCreate(*traceCSV)
		defer f.Close()
		cfg.TraceWriter = aequitas.NewCSVTrace(f)
	}
	if *trace != "" {
		f := mustCreate(*trace)
		defer f.Close()
		cfg.Obs.TraceNDJSON = f
	}
	if *metrics != "" {
		f := mustCreate(*metrics)
		defer f.Close()
		cfg.Obs.MetricsCSV = f
		cfg.Obs.TailSeries = *tailTS
	} else if *tailTS {
		log.Fatal("-tail needs -metrics to write the time series to")
	}
	if *flightF != "" {
		f := mustCreate(*flightF)
		defer f.Close()
		cfg.Obs.FlightNDJSON = f
	}
	cfg.Obs.Attribution = *attrib
	cfg.Obs.Audit = *audit
	if *attrCSV != "" {
		f := mustCreate(*attrCSV)
		defer f.Close()
		cfg.Obs.AttributionCSV = f
	}
	cfg.SLOs = []aequitas.SLO{
		{Target: *sloHigh, ReferenceBytes: *sloRef, Percentile: 99.9},
		{Target: *sloMed, ReferenceBytes: *sloRef, Percentile: 99.9},
	}
	cfg.Admission = aequitas.AdmissionParams{Alpha: *alpha, Beta: *beta}
	pat, err := parsePattern(*pattern)
	if err != nil {
		log.Fatal(err)
	}
	ls, err := parseShape(*shape)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Traffic = []aequitas.HostTraffic{{
		Pattern:   pat,
		AvgLoad:   *load,
		BurstLoad: *burst,
		Shape:     ls,
		Classes:   classes,
	}}
	if *faultS != "" {
		plan, err := loadFaultPlan(*faultS, *dur)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = plan
	}
	cfg.Retry = aequitas.RetryParams{
		Timeout:    *rTimeout,
		MaxRetries: *rRetries,
		HedgeAfter: *rHedge,
	}

	start := time.Now()
	res, err := aequitas.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("system=%s hosts=%d dur=%v seed=%d (wall %v)\n\n",
		sys, *hosts, *dur, *seed, time.Since(start).Round(time.Millisecond))
	writeSummary(os.Stdout, res, cfg.Faults != nil)
}

// writeSummary writes per-class latency, RPC counts, QoS mixes, goodput and
// SLO compliance, then the attribution, audit and degradation tables a run
// has, in class or priority order, never in map order: one Results is one text.
func writeSummary(w io.Writer, res *aequitas.Results, faulted bool) {
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %12s\n", "class", "p50(us)", "p99(us)", "p99.9(us)", "max(us)", "in-SLO(%)")
	for _, c := range res.Classes() {
		l := res.RNLRun[c]
		inSLO := "-"
		if f, ok := res.SLOMetRunBytesFraction[c]; ok {
			inSLO = fmt.Sprintf("%.1f", 100*f)
		}
		fmt.Fprintf(w, "%-6s %10.1f %10.1f %10.1f %10.1f %12s\n",
			c, l.P50US, l.P99US, l.P999US, l.MaxUS, inSLO)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "issued %d, completed %d, downgraded %d, dropped %d, terminated %d\n",
		res.Issued, res.Completed, res.Downgraded, res.Dropped, res.Terminated)
	fmt.Fprintf(w, "input mix  %s\nadmitted   %s\n", fmtMix(res.InputMix), fmtMix(res.AdmittedMix))
	fmt.Fprintf(w, "goodput fraction %.1f%%, mean downlink utilization %.1f%%\n",
		100*res.GoodputFraction, 100*res.AvgDownlinkUtilization)
	for _, pr := range []aequitas.Priority{aequitas.PC, aequitas.NC, aequitas.BE} {
		if f, ok := res.SLOMetBytesFraction[pr]; ok {
			fmt.Fprintf(w, "%v traffic meeting its original SLO: %.1f%%\n", pr, 100*f)
		}
	}
	if res.Attribution != nil {
		writeAttribution(w, res)
	}
	if res.Audit != nil {
		writeAudit(w, res.Audit)
	}
	if faulted {
		writeDegradation(w, res)
	}
}

// loadFaultPlan resolves the -faults argument: a preset name first, then
// a plan file.
func loadFaultPlan(arg string, dur time.Duration) (*aequitas.FaultPlan, error) {
	if plan, err := aequitas.FaultPreset(arg, dur); err == nil {
		return plan, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, fmt.Errorf("-faults %q: not a preset (%s) and %v",
			arg, strings.Join(aequitas.FaultPresetNames(), "|"), err)
	}
	defer f.Close()
	plan, err := aequitas.ParseFaultPlan(f)
	if err != nil {
		return nil, fmt.Errorf("-faults %s: %v", arg, err)
	}
	return plan, nil
}

// writeDegradation writes the fault timeline and graceful-degradation
// metrics.
func writeDegradation(w io.Writer, res *aequitas.Results) {
	fmt.Fprintf(w, "\nfault injection: goodput availability %.1f%% of bins\n", 100*res.GoodputAvailability)
	fmt.Fprintf(w, "robustness: timed out %d, retried %d, hedged %d (wins %d), failed %d, crash-lost %d, not issued %d\n",
		res.TimedOut, res.Retried, res.Hedged, res.HedgeWins,
		res.FailedRPCs, res.CrashLostRPCs, res.NotIssuedRPCs)
	for _, f := range res.Faults {
		line := fmt.Sprintf("  t=%8.3fms %-8s %s", 1e3*f.TimeS, f.Event, f.Target)
		if f.Event == "loss" {
			line += fmt.Sprintf(" rate=%.3f", f.Rate)
		}
		if f.Onset() {
			for i, r := range f.PAdmitRecoveryS {
				p := res.Probes[i]
				if r != r { // NaN: never re-converged before the horizon
					line += fmt.Sprintf("  probe[%d→%d %s] p_admit not recovered", p.Src, p.Dst, p.Class)
				} else {
					line += fmt.Sprintf("  probe[%d→%d %s] p_admit recovered in %.2fms", p.Src, p.Dst, p.Class, 1e3*r)
				}
			}
		}
		fmt.Fprintln(w, line)
	}
}

// writeAttribution writes the per-class mean latency decomposition table.
func writeAttribution(w io.Writer, res *aequitas.Results) {
	fmt.Fprintln(w, "\nlatency attribution (mean us per completed RPC):")
	fmt.Fprintf(w, "%-6s %8s %8s %8s %10s %8s %8s %8s %8s %8s\n",
		"class", "n", "admit", "sender", "transport", "pacing", "nic", "switch", "wire", "rnl")
	for _, c := range res.Classes() {
		a, ok := res.Attribution[c]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-6s %8d %8.2f %8.2f %10.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			c, a.N, a.AdmitUS, a.SenderUS, a.TransportUS, a.PacingUS, a.NICUS, a.SwitchUS, a.WireUS, a.RNLUS)
	}
}

// writeAudit writes the QoS-bound auditor's verdict.
func writeAudit(w io.Writer, rep *aequitas.AuditReport) {
	verdict := "OK"
	if !rep.Ok() {
		verdict = fmt.Sprintf("%d VIOLATIONS", rep.TotalViolations)
	}
	fmt.Fprintf(w, "\nQoS-bound audit (slack %.1fus): %s\n", rep.SlackUS, verdict)
	fmt.Fprintf(w, "%-6s %8s %10s %10s %10s %10s %10s %10s\n",
		"class", "n", "bound(us)", "q.p99(us)", "q.max(us)", "hop.max", "rnl.p99", "viol")
	for _, c := range rep.Classes {
		bound := "-"
		if c.Bounded {
			bound = fmt.Sprintf("%.1f", c.BoundUS)
		}
		fmt.Fprintf(w, "%-6s %8d %10s %10.1f %10.1f %10.1f %10.1f %10d\n",
			c.Class, c.N, bound, c.QueueP99US, c.QueueMaxUS, c.MaxHopUS, c.RNLP99US, c.Violations)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "  violation: rpc=%d class=%s hop@%s t=%.1fus observed=%.1fus bound=%.1fus\n",
			v.RPC, v.Class, v.Link, v.TimeUS, v.ObservedUS, v.BoundUS)
	}
}

func mustCreate(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

// parsePattern maps the -pattern grammar onto a TrafficPattern:
// uniform | incast[:FANIN] | permutation | hotspot:HOT:SHARE.
func parsePattern(s string) (aequitas.TrafficPattern, error) {
	name, args, _ := strings.Cut(s, ":")
	switch name {
	case "uniform":
		return aequitas.UniformPattern(), nil
	case "permutation":
		return aequitas.PermutationPattern(), nil
	case "incast":
		fanin := 0
		if args != "" {
			var err error
			if fanin, err = strconv.Atoi(args); err != nil {
				return nil, fmt.Errorf("bad incast fan-in %q", args)
			}
		}
		return aequitas.IncastPattern(fanin), nil
	case "hotspot":
		parts := strings.Split(args, ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("hotspot needs HOT:SHARE, got %q", s)
		}
		hot, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad hotspot host %q", parts[0])
		}
		share, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad hotspot share %q", parts[1])
		}
		return aequitas.HotspotPattern(hot, share), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", s)
	}
}

// parseShape maps the -load-shape grammar onto a LoadShape:
// constant | step:AT:FACTOR | ramp:FROM:TO:FACTOR | onoff:PERIOD:DUTY.
// Times use Go duration syntax (e.g. step:10ms:2).
func parseShape(s string) (aequitas.LoadShape, error) {
	name, args, _ := strings.Cut(s, ":")
	parts := strings.Split(args, ":")
	dur := func(i int) (time.Duration, error) { return time.ParseDuration(parts[i]) }
	num := func(i int) (float64, error) { return strconv.ParseFloat(parts[i], 64) }
	switch name {
	case "constant", "":
		return nil, nil
	case "step":
		if len(parts) != 2 {
			return nil, fmt.Errorf("step needs AT:FACTOR, got %q", s)
		}
		at, err := dur(0)
		if err != nil {
			return nil, err
		}
		f, err := num(1)
		if err != nil {
			return nil, err
		}
		return aequitas.StepLoad(at, f), nil
	case "ramp":
		if len(parts) != 3 {
			return nil, fmt.Errorf("ramp needs FROM:TO:FACTOR, got %q", s)
		}
		from, err := dur(0)
		if err != nil {
			return nil, err
		}
		to, err := dur(1)
		if err != nil {
			return nil, err
		}
		f, err := num(2)
		if err != nil {
			return nil, err
		}
		return aequitas.RampLoad(from, to, f), nil
	case "onoff":
		if len(parts) != 2 {
			return nil, fmt.Errorf("onoff needs PERIOD:DUTY, got %q", s)
		}
		period, err := dur(0)
		if err != nil {
			return nil, err
		}
		duty, err := num(1)
		if err != nil {
			return nil, err
		}
		return aequitas.OnOffLoad(period, duty), nil
	default:
		return nil, fmt.Errorf("unknown load shape %q", s)
	}
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func fmtMix(m []float64) string {
	parts := make([]string, len(m))
	for i, x := range m {
		parts[i] = fmt.Sprintf("%5.1f%%", 100*x)
	}
	return strings.Join(parts, " ")
}
