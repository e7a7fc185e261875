package aequitas

import (
	"fmt"
	"strconv"

	"aequitas/internal/core"
	"aequitas/internal/faults"
	"aequitas/internal/netsim"
	"aequitas/internal/qos"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
	"aequitas/internal/stats"
	"aequitas/internal/workload"
)

// collector accumulates all measurements for one run.
type collector struct {
	cfg    *SimConfig
	warm   sim.Time
	end    sim.Time
	stacks []*rpc.Stack
	gens   []*workload.Generator

	inputMix    *qos.MixCounter
	admittedMix *qos.MixCounter

	// The per-class and per-priority tallies below are indexed by the
	// class or priority, each slice sized once for every value a run can
	// report. A nil sample is a class or priority nothing completed on.
	rnlRun  []*stats.Sample // by class run on
	rnlPrio []*stats.Sample // by priority

	issued, completed, downgraded, dropped int64
	// SLO accounting by priority: issued vs met, in bytes and counts.
	issuedBytes, metBytes []int64
	issuedCount, metCount []int64
	// SLO accounting by the class the RPC actually ran on.
	runBytes, runMetBytes []int64
	completedPayloadBytes int64
	offeredBytesAtWarm    int64
	busyAtWarm, busyAtEnd sim.Duration
	measStart, measEnd    sim.Time

	probes   []*probeState
	outHigh  stats.Sample
	outLow   stats.Sample
	outHiBuf []int // per-dst scratch reused across sample ticks
	outLoBuf []int
	traceRow []byte // the last per-RPC trace row; its storage is the next one's
	// traceErr is the first TraceWriter error; no row is written after it,
	// and Run returns it once the run has drained.
	traceErr error

	// Degradation accounting, active only when a fault plan is set:
	// completed payload bytes per coarse time bin across the measurement
	// window (for goodput availability) plus the applied fault events.
	faultBin   sim.Duration
	faultBins  []int64
	faultMarks []faultMark
}

// faultMark is one applied fault event, stamped with the time the
// injector fired it.
type faultMark struct {
	at sim.Time
	e  faults.Event
}

type probeState struct {
	p          Probe
	admitSer   stats.Series
	thruSer    stats.Series
	bytes      int64 // completed bytes on (src,dst,class) since last sample
	lastSample sim.Time
	// hasSample distinguishes "no previous sample yet" from a real sample
	// taken at t=0 (which a zero-time sentinel would misread when
	// Warmup == 0).
	hasSample bool
}

func newCollector(cfg *SimConfig) *collector {
	// A priority maps to the class of its number, which a run without
	// admission control keeps even past the last QoS level.
	n := cfg.levels()
	for _, ht := range cfg.Traffic {
		for _, tc := range ht.Classes {
			n = max(n, int(tc.Priority)+1)
		}
	}
	c := &collector{
		cfg:         cfg,
		warm:        sim.FromStd(cfg.Warmup),
		end:         sim.FromStd(cfg.Duration),
		inputMix:    qos.NewMixCounter(cfg.levels()),
		admittedMix: qos.NewMixCounter(cfg.levels()),
		rnlRun:      make([]*stats.Sample, n),
		rnlPrio:     make([]*stats.Sample, n),
		issuedBytes: make([]int64, n),
		metBytes:    make([]int64, n),
		issuedCount: make([]int64, n),
		metCount:    make([]int64, n),
		runBytes:    make([]int64, n),
		runMetBytes: make([]int64, n),
	}
	for _, p := range cfg.Probes {
		c.probes = append(c.probes, &probeState{p: p,
			admitSer: stats.Series{Name: "p_admit"}, thruSer: stats.Series{Name: "goodput"}})
	}
	if !cfg.Faults.Empty() {
		// Availability bins are deliberately coarse — at least a burst
		// period — so ordinary burst gaps don't read as outage bins.
		c.faultBin = sim.FromStd(cfg.SampleEvery)
		if bp := sim.FromStd(cfg.BurstPeriod); bp > c.faultBin {
			c.faultBin = bp
		}
		if span := c.end - c.warm; span > 0 && c.faultBin > 0 {
			c.faultBins = make([]int64, (span+c.faultBin-1)/c.faultBin)
		}
	}
	return c
}

// onFault records an applied fault event for the degradation report.
func (c *collector) onFault(s *sim.Simulator, e faults.Event) {
	c.faultMarks = append(c.faultMarks, faultMark{at: s.Now(), e: e})
}

func (c *collector) beginMeasurement(s *sim.Simulator, net *netsim.Network) {
	c.measStart = s.Now()
	for _, g := range c.gens {
		c.offeredBytesAtWarm += g.Offered.Total()
	}
	for i := 0; i < net.Hosts(); i++ {
		c.busyAtWarm += net.Downlink(i).Stats(s.Now()).BusyTime
	}
}

func (c *collector) endMeasurement(s *sim.Simulator, net *netsim.Network) {
	c.measEnd = s.Now()
	for i := 0; i < net.Hosts(); i++ {
		c.busyAtEnd += net.Downlink(i).Stats(s.Now()).BusyTime
	}
}

// onAdmit records the input and admitted byte mixes at issue time.
func (c *collector) onAdmit(s *sim.Simulator, r *rpc.RPC, d rpc.Decision) {
	// Gate on the same issue-time window as onComplete so the SLO-met
	// numerators (completions) and denominators (admissions) count the
	// same RPC population.
	if !c.inWindow(s.Now()) {
		return
	}
	requested := r.QoSRequested
	bytes := r.SizeMTUs * int64(netsim.MaxPayload)
	// With fewer QoS levels than priority classes (e.g. 2-level runs),
	// lower priorities all request the scavenger class; clamp so their
	// bytes are counted rather than silently dropped.
	mixClass := requested
	if int(mixClass) >= c.cfg.levels() {
		mixClass = qos.Class(c.cfg.levels() - 1)
	}
	c.inputMix.Add(mixClass, bytes)
	if !d.Dropped {
		c.admittedMix.Add(d.Class, bytes)
	}
	c.issued++
	if d.Downgraded {
		c.downgraded++
	}
	if d.Dropped {
		c.dropped++
	}
	// SLO-met denominators are charged at issue so that RPCs that never
	// complete — dropped, terminated by a deadline baseline, or still
	// stuck at the end of the run — count as misses.
	pr := qos.MapQoSToPriority(requested)
	c.issuedBytes[pr] += bytes
	c.issuedCount[pr]++
}

// inWindow reports whether an RPC issued at t counts toward statistics.
func (c *collector) inWindow(t sim.Time) bool { return t >= c.warm && t <= c.end }

func (c *collector) onComplete(s *sim.Simulator, r *rpc.RPC) {
	if !c.inWindow(r.IssueTime) {
		return
	}
	us := r.RNL.Micros()
	c.rnl(c.rnlRun, int(r.QoSRun)).Add(us)
	c.rnl(c.rnlPrio, int(r.Priority)).Add(us)
	c.completed++
	c.completedPayloadBytes += r.Bytes
	if len(c.faultBins) > 0 {
		idx := int((r.CompleteTime - c.warm) / c.faultBin)
		if idx < 0 {
			idx = 0
		} else if idx >= len(c.faultBins) {
			idx = len(c.faultBins) - 1
		}
		c.faultBins[idx] += r.Bytes
	}

	if c.meetsSLO(r) {
		// Numerator in the same MTU-quantised bytes as the issue-time
		// denominator.
		c.metBytes[r.Priority] += r.SizeMTUs * int64(netsim.MaxPayload)
		c.metCount[r.Priority]++
	}
	if int(r.QoSRun) < len(c.cfg.SLOs) {
		c.runBytes[r.QoSRun] += r.Bytes
		target := c.cfg.SLOs[r.QoSRun].perMTU()
		if r.RNL/sim.Duration(r.SizeMTUs) < target {
			c.runMetBytes[r.QoSRun] += r.Bytes
		}
	}
}

// meetsSLO checks the RPC against its *original* class's normalised
// target (Figure 22's criterion).
func (c *collector) meetsSLO(r *rpc.RPC) bool {
	k := int(r.QoSRequested)
	if k >= len(c.cfg.SLOs) {
		return true // the scavenger class has no SLO to miss
	}
	target := c.cfg.SLOs[k].perMTU()
	return r.RNL/sim.Duration(r.SizeMTUs) < target
}

// rnl returns the RNL sample xs[i], made on first use.
func (c *collector) rnl(xs []*stats.Sample, i int) *stats.Sample {
	if xs[i] == nil {
		xs[i] = &stats.Sample{}
	}
	return xs[i]
}

// sample records probe and outstanding data points.
func (c *collector) sample(s *sim.Simulator, controllers []*core.Controller) {
	now := s.Now().Seconds()
	for _, ps := range c.probes {
		ps.admitSer.Append(now, controllers[ps.p.Src].AdmitProbability(ps.p.Dst, ps.p.Class))
		if ps.hasSample {
			if dt := (s.Now() - ps.lastSample).Seconds(); dt > 0 {
				gbps := float64(ps.bytes) * 8 / dt / 1e9
				ps.thruSer.Append(now, gbps)
			}
		}
		ps.bytes = 0
		ps.lastSample = s.Now()
		ps.hasSample = true
	}
	if c.cfg.TrackOutstanding {
		// One pass over every stack's in-flight RPCs, accumulating
		// per-destination counts.
		scavenger := qos.Class(c.cfg.levels() - 1)
		n := len(c.stacks)
		if c.outHiBuf == nil {
			c.outHiBuf = make([]int, n)
			c.outLoBuf = make([]int, n)
		}
		for i := range c.outHiBuf {
			c.outHiBuf[i] = 0
			c.outLoBuf[i] = 0
		}
		for _, st := range c.stacks {
			st.ForEachOutstanding(func(dst int, cl qos.Class) {
				if dst < 0 || dst >= n {
					return
				}
				if cl >= scavenger {
					c.outLoBuf[dst]++
				} else {
					c.outHiBuf[dst]++
				}
			})
		}
		for dst := 0; dst < n; dst++ {
			c.outHigh.Add(float64(c.outHiBuf[dst]))
			c.outLow.Add(float64(c.outLoBuf[dst]))
		}
	}
}

// traceCSVHeader is the per-RPC CSV trace schema.
const traceCSVHeader = "complete_s,src,dst,priority,requested,ran,downgraded,decision,p_admit,bytes,rnl_us"

// trace writes one per-RPC CSV record to the configured TraceWriter.
func (c *collector) trace(s *sim.Simulator, src int, r *rpc.RPC) {
	w := c.cfg.TraceWriter
	if w == nil || c.traceErr != nil || !c.inWindow(r.IssueTime) {
		return
	}
	// The sink owns the header latch, so a retried run reusing it still
	// writes the header exactly once.
	if w.claimHeader() {
		if _, err := fmt.Fprintln(w, traceCSVHeader); err != nil {
			c.traceErr = err
			return
		}
	}
	// The row is appended field by field into a buffer kept across rows:
	// Fprintf boxed eleven arguments for each. Only RPCs that ran complete,
	// so the decision was an admit or a downgrade.
	b := strconv.AppendFloat(c.traceRow[:0], r.CompleteTime.Seconds(), 'f', 9, 64)
	b = strconv.AppendInt(append(b, ','), int64(src), 10)
	b = strconv.AppendInt(append(b, ','), int64(r.Dst), 10)
	b = append(append(b, ','), r.Priority.String()...)
	b = append(append(b, ','), r.QoSRequested.String()...)
	b = append(append(b, ','), r.QoSRun.String()...)
	b = strconv.AppendBool(append(b, ','), r.Downgraded)
	b = append(append(b, ','), rpc.Decision{Downgraded: r.Downgraded}.Verdict().String()...)
	b = strconv.AppendFloat(append(b, ','), r.PAdmit, 'f', 4, 64)
	b = strconv.AppendInt(append(b, ','), r.Bytes, 10)
	b = strconv.AppendFloat(append(b, ','), r.RNL.Micros(), 'f', 3, 64)
	c.traceRow = append(b, '\n')
	_, c.traceErr = w.Write(c.traceRow)
}

// addProbeBytes credits completed bytes to matching probes; wired through
// per-stack OnComplete in results assembly.
func (c *collector) addProbeBytes(src, dst int, class qos.Class, bytes int64) {
	for _, ps := range c.probes {
		if ps.p.Src == src && ps.p.Dst == dst && ps.p.Class == class {
			ps.bytes += bytes
		}
	}
}

func (c *collector) results(cfg *SimConfig, net *netsim.Network) *Results {
	res := &Results{
		System:              cfg.System,
		RNLRun:              make(map[Class]LatencySummary),
		RNLPriority:         make(map[Priority]LatencySummary),
		SLOMetBytesFraction: make(map[Priority]float64),
		SLOMetCountFraction: make(map[Priority]float64),
		Issued:              c.issued,
		Completed:           c.completed,
		Downgraded:          c.downgraded,
		Dropped:             c.dropped,
		rnlRun:              c.rnlRun,
	}
	res.SLOMetRunBytesFraction = make(map[Class]float64)
	for i := range c.rnlRun {
		if sm := c.rnlRun[i]; sm != nil {
			res.RNLRun[Class(i)] = summarizeUS(sm)
		}
		if sm := c.rnlPrio[i]; sm != nil {
			res.RNLPriority[Priority(i)] = summarizeUS(sm)
		}
		if ib := c.issuedBytes[i]; ib > 0 {
			res.SLOMetBytesFraction[Priority(i)] = float64(c.metBytes[i]) / float64(ib)
		}
		if ic := c.issuedCount[i]; ic > 0 {
			res.SLOMetCountFraction[Priority(i)] = float64(c.metCount[i]) / float64(ic)
		}
		if rb := c.runBytes[i]; rb > 0 {
			res.SLOMetRunBytesFraction[Class(i)] = float64(c.runMetBytes[i]) / float64(rb)
		}
	}
	res.InputMix = c.inputMix.Mix()
	res.AdmittedMix = c.admittedMix.Mix()

	var offered int64
	for _, g := range c.gens {
		offered += g.Offered.Total()
	}
	offered -= c.offeredBytesAtWarm
	if offered > 0 {
		// RawGoodputRatio keeps the unclamped ratio so accounting errors
		// (completions exceeding offered bytes) stay visible; the reported
		// GoodputFraction clamps to 1 for plotting.
		res.RawGoodputRatio = float64(c.completedPayloadBytes) / float64(offered)
		res.GoodputFraction = res.RawGoodputRatio
		if res.GoodputFraction > 1 {
			res.GoodputFraction = 1
		}
	}
	if span := c.measEnd - c.measStart; span > 0 && net.Hosts() > 0 {
		res.AvgDownlinkUtilization = float64(c.busyAtEnd-c.busyAtWarm) / float64(span) / float64(net.Hosts())
	}

	for _, ps := range c.probes {
		res.Probes = append(res.Probes, ProbeResult{
			Src: ps.p.Src, Dst: ps.p.Dst, Class: ps.p.Class,
			AdmitProbability: ps.admitSer,
			ThroughputGbps:   ps.thruSer,
		})
	}
	if cfg.TrackOutstanding {
		res.OutstandingHighMed = c.outHigh.CDF(200)
		res.OutstandingLow = c.outLow.CDF(200)
	}
	for _, st := range c.stacks {
		res.TimedOut += st.Stats.TimedOut
		res.Retried += st.Stats.Retried
		res.Hedged += st.Stats.Hedged
		res.HedgeWins += st.Stats.HedgeWins
		res.FailedRPCs += st.Stats.Failed
		res.CrashLostRPCs += st.Stats.CrashLost
		res.NotIssuedRPCs += st.Stats.NotIssued
	}
	c.degradation(res)
	return res
}

// degradation fills the fault-plan report: goodput availability over the
// coarse bins and per-probe p_admit recovery time after each
// degradation-onset event.
func (c *collector) degradation(res *Results) {
	if len(c.faultBins) > 0 {
		var total int64
		for _, b := range c.faultBins {
			total += b
		}
		if total > 0 {
			mean := float64(total) / float64(len(c.faultBins))
			ok := 0
			for _, b := range c.faultBins {
				if float64(b) >= mean/2 {
					ok++
				}
			}
			res.GoodputAvailability = float64(ok) / float64(len(c.faultBins))
		}
	}
	for _, m := range c.faultMarks {
		res.Faults = append(res.Faults, FaultRecord{
			TimeS:  m.at.Seconds(),
			Event:  m.e.Kind.String(),
			Target: m.e.Target,
			Rate:   m.e.Rate,
			onset:  m.e.Onset(),
		})
	}
	endS := c.end.Seconds()
	for i := range res.Faults {
		fr := &res.Faults[i]
		if !fr.Onset() {
			continue
		}
		// Recovery is judged up to the next onset event so back-to-back
		// faults don't mask each other's convergence.
		horizon := endS
		for _, later := range res.Faults[i+1:] {
			if later.Onset() {
				horizon = later.TimeS
				break
			}
		}
		for _, pr := range res.Probes {
			fr.PAdmitRecoveryS = append(fr.PAdmitRecoveryS,
				faultRecovery(pr.AdmitProbability, fr.TimeS, horizon, 0.10))
		}
	}
}
