package aequitas

import (
	"fmt"
	"time"

	"aequitas/internal/core"
	"aequitas/internal/faults"
	"aequitas/internal/netsim"
	"aequitas/internal/obs"
	"aequitas/internal/obs/flight"
	"aequitas/internal/rpc"
	"aequitas/internal/scenario"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
	"aequitas/internal/workload"
)

// metricsEvery is the metrics registry's sampling interval in simulated
// time: the tail series' window and the anomaly engine's cadence.
const metricsEvery = 100 * time.Microsecond

// runState threads one simulation's pieces through the pipeline stages.
type runState struct {
	cfg *SimConfig
	s   *sim.Simulator

	env *scenario.Env

	net      *netsim.Network
	tracer   *obs.Tracer
	registry *obs.Registry
	tails    *obs.TailTracker
	attr     *obs.Attributor
	audit    *obs.Auditor

	// flight is the run's shared flight-recorder ring (nil when
	// ObsConfig.FlightNDJSON is unset); flightErr carries a mid-run dump
	// failure out of event callbacks to runAndDrain.
	flight    *flight.Ring
	flightErr error

	col         *collector
	controllers []*core.Controller

	warm, end sim.Time
}

// Run executes one simulation and returns its measurements. All
// system-specific wiring comes from the cfg.System row of the
// internal/scenario table; Run itself only composes the stages (simulate)
// and reads the measurements off the finished run.
func Run(cfg SimConfig) (*Results, error) {
	st, err := simulate(cfg)
	if err != nil {
		return nil, err
	}
	res := st.col.results(st.cfg, st.net)
	res.Terminated = st.env.Terminated()
	res.EventsProcessed = int64(st.s.Processed)
	pkts, _ := st.net.TotalDelivered(st.s.Now())
	res.PacketsDelivered = pkts
	if st.attr != nil {
		res.Attribution = make(map[Class]Attribution)
		for _, a := range st.attr.Summaries() {
			res.Attribution[a.Class] = a
		}
	}
	res.Audit = st.audit.Report()
	return res, nil
}

// simulate runs cfg through every stage and returns the finished run.
func simulate(cfg SimConfig) (*runState, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	st := &runState{
		cfg:  &cfg,
		s:    sim.New(cfg.Seed + 1),
		warm: sim.FromStd(cfg.Warmup),
		end:  sim.FromStd(cfg.Duration),
	}
	for _, stage := range []func(*runState) error{
		buildFabric,
		buildHosts,
		buildWorkload,
		buildFaults,
		buildSamplers,
		runAndDrain,
	} {
		if err := stage(st); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// buildFabric constructs the network with the system's switch scheduling
// discipline, plus the per-run observability sinks.
func buildFabric(st *runState) error {
	cfg := st.cfg
	net, err := netsim.New(netsim.Config{
		Hosts:       cfg.Hosts,
		LinkRate:    sim.Rate(cfg.LinkRate),
		PropDelay:   sim.FromStd(cfg.PropDelay),
		SwitchSched: scenario.Systems[cfg.System].Sched(cfg.QoSWeights, cfg.PerClassBufferBytes),
		Topology: netsim.Topology{
			Leaves:        cfg.Leaves,
			Spines:        cfg.Spines,
			SpineLinkRate: sim.Rate(cfg.SpineLinkRate),
		},
	})
	if err != nil {
		return err
	}
	st.net = net
	st.col = newCollector(cfg)

	// Observability: one tracer and one metrics registry per run, so
	// event and sample order depend only on this run's event sequence.
	st.registry = cfg.Obs.registry()
	if cfg.Obs.TailSeries && st.registry != nil {
		st.tails = obs.NewTailTracker()
	}
	if cfg.Obs.FlightNDJSON != nil {
		st.flight = flight.NewRing(flight.Config{}) // 16 384 records
	}
	if cfg.Obs.Audit {
		bounds := cfg.Obs.AuditBoundsUS
		if bounds == nil {
			bounds, err = cfg.deriveAuditBounds()
			if err != nil {
				return fmt.Errorf("aequitas: audit bounds: %w", err)
			}
		}
		slack := cfg.Obs.AuditSlackUS
		if slack == 0 {
			slack = float64(cfg.BurstPeriod) / float64(time.Microsecond) * 0.1
		}
		st.audit = obs.NewAuditor(obs.AuditConfig{
			BoundUS: bounds,
			SlackUS: slack,
			Levels:  len(cfg.QoSWeights),
		})
	}
	if cfg.Obs.Attribution || cfg.Obs.AttributionCSV != nil {
		st.attr = obs.NewAttributor()
	}
	// The tracer is the run's one lifecycle observer: every link, endpoint
	// and RPC stack reports to it, and it feeds the sinks above.
	st.tracer = obs.NewTracer(obs.Sinks{
		Record: cfg.Obs.TraceNDJSON != nil,
		Attr:   st.attr,
		Audit:  st.audit,
		Tails:  st.tails,
	})
	net.SetTracer(st.tracer)
	return nil
}

// buildHosts asks the system's row for each host's sender and admitter,
// then wraps them in the measurement stack.
func buildHosts(st *runState) error {
	cfg := st.cfg
	st.env = &scenario.Env{
		Net:         st.net,
		Hosts:       cfg.Hosts,
		Levels:      cfg.levels(),
		LineRate:    sim.Rate(cfg.LinkRate),
		RTOMin:      sim.FromStd(cfg.RTOMin),
		DisableCC:   cfg.DisableCC,
		FixedWindow: cfg.FixedWindow,
		Core:        coreConfig(cfg.levels(), cfg.SLOs, cfg.Admission),
		Clock:       core.SimClock{S: st.s},
		Tracer:      st.tracer,
		Endpoints:   make([]*transport.Endpoint, cfg.Hosts),
	}
	host := scenario.Systems[cfg.System].Host
	st.controllers = make([]*core.Controller, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		hs, err := host(st.env, i)
		if err != nil {
			return err
		}
		st.controllers[i] = hs.Controller
		var adm rpc.Admitter // nil: admit everything on the requested class
		if ctl := hs.Controller; ctl != nil {
			ctl.SetFlight(st.flight, i)
			adm = ctl
		}
		stack := rpc.NewStack(hs.Sender, adm)
		stack.Trace = st.tracer
		stack.Src = i
		stack.Retry = cfg.retryPolicy()
		src := i
		col := st.col
		stack.OnAdmit = col.onAdmit
		stack.OnComplete = func(s *sim.Simulator, r *rpc.RPC) {
			col.addProbeBytes(src, r.Dst, r.QoSRun, r.Bytes)
			col.onComplete(s, r)
			col.trace(s, src, r)
		}
		col.stacks = append(col.stacks, stack)
	}
	return nil
}

// buildWorkload turns the resolved traffic matrix into per-sender
// generators and starts their arrival streams.
func buildWorkload(st *runState) error {
	cfg := st.cfg
	for _, rt := range cfg.resolved {
		ht := &cfg.Traffic[rt.traffic]
		for _, hid := range rt.hosts {
			spec, err := toSpec(cfg, ht, rt, hid)
			if err != nil {
				return err
			}
			gen, err := workload.NewGenerator(st.col.stacks[hid], spec)
			if err != nil {
				return err
			}
			st.col.gens = append(st.col.gens, gen)
			gen.Start(st.s)
		}
	}
	return nil
}

// buildFaults schedules the fault plan, if any: link targets bind to the
// fabric's links (plus "host:N" aliases for each host's access links),
// host targets bind to a control that crashes the whole per-host slice —
// RPC stack, transport endpoint, admission state, and every peer's
// connections toward it. Applied events flow into the trace stream and
// the collector's degradation accounting.
func buildFaults(st *runState) error {
	plan := st.cfg.Faults
	if plan.Empty() {
		return nil
	}
	in := faults.NewInjector(plan, st.cfg.Seed)
	st.net.ForEachLink(func(l *netsim.Link) { in.BindLink(l.Name, l) })
	for i := 0; i < st.cfg.Hosts; i++ {
		in.BindLink(faults.HostTarget(i), st.net.Host(i).Uplink, st.net.Downlink(i))
		in.BindHost(i, &hostFaultControl{st: st, host: i})
	}
	tracer, col := st.tracer, st.col
	in.OnEvent = func(s *sim.Simulator, e faults.Event) {
		tracer.Fault(s.Now(), e.Kind, e.Target, e.Rate)
		col.onFault(s, e)
		// Fault onsets dump and reset the flight ring: the dump holds the
		// decisions leading into the fault window, and the next dump
		// starts clean inside it.
		if st.flight != nil && e.Onset() {
			st.flightDump(flight.Trigger{
				Kind:   flight.TriggerFault,
				At:     s.Now(),
				Detail: e.Kind.String() + " " + e.Target,
			}, true)
		}
	}
	return in.Schedule(st.s)
}

// flightDump snapshots the ring into the configured NDJSON sink, labelled
// with the system name. Errors are latched into st.flightErr (callbacks
// have nowhere to return them) and surfaced by runAndDrain.
func (st *runState) flightDump(tr flight.Trigger, reset bool) {
	err := st.flight.Dump(st.cfg.Obs.FlightNDJSON, flight.Meta{
		Trigger: tr,
		Label:   st.cfg.System.String(),
	}, reset)
	if err != nil && st.flightErr == nil {
		st.flightErr = err
	}
}

// hostFaultControl implements faults.HostControl over one host's slice
// of the run: its RPC stack, transport endpoint, and admission state,
// plus every peer endpoint's connections toward it.
type hostFaultControl struct {
	st   *runState
	host int
}

func (h *hostFaultControl) Crash(s *sim.Simulator) {
	st, i := h.st, h.host
	st.col.stacks[i].Crash(s)
	if ctl := st.controllers[i]; ctl != nil {
		ctl.Reset()
	}
	// Baselines that bypass the standard transport (Homa, D3, PDQ) have
	// no endpoint; their in-flight state is cleared via the stack only.
	if ep := st.env.Endpoints[i]; ep != nil {
		ep.Crash(s)
	}
	for j, ep := range st.env.Endpoints {
		if j != i && ep != nil {
			ep.ResetPeer(s, i)
		}
	}
}

func (h *hostFaultControl) Restart(s *sim.Simulator) {
	if ep := h.st.env.Endpoints[h.host]; ep != nil {
		ep.Restart(s)
	}
	h.st.col.stacks[h.host].Restart()
}

// buildSamplers schedules the measurement-window boundary, the periodic
// metrics samplers, and the probe/outstanding sampling tick.
func buildSamplers(st *runState) error {
	cfg, s, col := st.cfg, st.s, st.col
	warm, end, net := st.warm, st.end, st.net

	// Warmup boundary: begin measurement.
	s.AtFunc(warm, func(s *sim.Simulator) { col.beginMeasurement(s, net) })

	// The metrics cadence, shared by the registry and the anomaly engine.
	// Each keeps its own event, registry first.
	every := sim.FromStd(metricsEvery)

	// Periodic metrics sampling: per-port queue occupancy, plus every
	// host's admission and transport state. Sampling starts at t=0 (before
	// warmup) so convergence transients are visible.
	if st.registry != nil {
		registry := st.registry
		registry.Register(net.MetricsSampler())
		for i := 0; i < cfg.Hosts; i++ {
			if st.controllers[i] != nil {
				registry.Register(st.controllers[i].MetricsSampler(i))
			}
			if st.env.Endpoints[i] != nil {
				registry.Register(st.env.Endpoints[i].MetricsSampler())
			}
		}
		// Tail time-series last, so its columns append after the built-in
		// samplers' and enabling it never reorders existing columns.
		if st.tails != nil {
			registry.Register(st.tails.Sampler())
		}
		var mtick func(*sim.Simulator)
		mtick = func(s *sim.Simulator) {
			registry.Sample(s.Now())
			if s.Now() < end {
				s.AfterFunc(every, mtick)
			}
		}
		s.AtFunc(0, mtick)
	}

	// Anomaly-engine pump: on the metrics cadence, feed the engine the
	// cumulative SLO counters and the minimum live admit probability
	// across every host. A trigger dumps and resets the flight ring.
	if st.flight != nil && cfg.Obs.FlightEngine != nil {
		eng := flight.NewEngine(*cfg.Obs.FlightEngine)
		controllers := st.controllers
		var ftick func(*sim.Simulator)
		ftick = func(s *sim.Simulator) {
			var met, miss int64
			minP := 1.0
			now := s.Now()
			for _, ct := range controllers {
				if ct == nil {
					continue
				}
				cs := ct.Stats()
				met += cs.SLOMet
				miss += cs.SLOMisses
				minP = min(minP, ct.MinAdmitProbability())
			}
			if tr, ok := eng.Tick(now, met, miss, minP); ok {
				st.flightDump(tr, true)
			}
			if now < end {
				s.AfterFunc(every, ftick)
			}
		}
		s.AtFunc(0, ftick)
	}

	// Probe and outstanding sampling.
	if len(cfg.Probes) > 0 || cfg.TrackOutstanding {
		interval := sim.FromStd(cfg.SampleEvery)
		controllers := st.controllers
		var tick func(*sim.Simulator)
		tick = func(s *sim.Simulator) {
			col.sample(s, controllers)
			if s.Now() < end {
				s.AfterFunc(interval, tick)
			}
		}
		s.AtFunc(warm, tick)
	}
	return nil
}

// runTo runs the simulation through t and closes instant t on every link
// (netsim.Network.Settle), so what is read next is the state at its end.
func (st *runState) runTo(t sim.Time) {
	st.s.RunUntil(t)
	st.net.Settle(t)
}

// runAndDrain runs the offered load until end, then drains in-flight RPCs
// and flushes the observability sinks.
func runAndDrain(st *runState) error {
	cfg, s, col, end := st.cfg, st.s, st.col, st.end
	st.runTo(end)
	for _, g := range col.gens {
		g.Stop()
	}
	col.endMeasurement(s, st.net)
	drain := end / 5
	if drain > sim.FromStd(50*time.Millisecond) {
		drain = sim.FromStd(50 * time.Millisecond)
	}
	st.runTo(end + drain)
	if col.traceErr != nil {
		return fmt.Errorf("aequitas: trace csv: %w", col.traceErr)
	}

	// Flush observability output. The run is single-threaded and each run
	// owns its writers, so the streams are deterministic and race-free.
	if w := cfg.Obs.TraceNDJSON; w != nil {
		if err := st.tracer.WriteNDJSON(w); err != nil {
			return fmt.Errorf("aequitas: trace ndjson: %w", err)
		}
	}
	if st.registry != nil {
		if err := st.registry.WriteCSV(cfg.Obs.MetricsCSV); err != nil {
			return fmt.Errorf("aequitas: metrics csv: %w", err)
		}
	}
	if w := cfg.Obs.AttributionCSV; w != nil {
		if err := st.attr.WriteCSV(w); err != nil {
			return fmt.Errorf("aequitas: attribution csv: %w", err)
		}
	}
	if st.flight != nil {
		if st.flightErr != nil {
			return fmt.Errorf("aequitas: flight dump: %w", st.flightErr)
		}
		st.flightDump(flight.Trigger{Kind: flight.TriggerFinal, At: s.Now()}, false)
		if st.flightErr != nil {
			return fmt.Errorf("aequitas: flight dump: %w", st.flightErr)
		}
	}
	return nil
}

// toSpec converts one resolved traffic assignment for one sender into a
// workload.Spec.
func toSpec(cfg *SimConfig, ht *HostTraffic, rt resolvedTraffic, self int) (workload.Spec, error) {
	if ht.AvgLoad <= 0 {
		return workload.Spec{}, fmt.Errorf("aequitas: traffic needs AvgLoad > 0")
	}
	spec := workload.Spec{
		Rate:        sim.Rate(cfg.LinkRate),
		Load:        ht.AvgLoad,
		Rho:         ht.BurstLoad,
		Period:      sim.FromStd(cfg.BurstPeriod),
		Dsts:        rt.dsts,
		DstWeights:  rt.weights,
		ExcludeSelf: rt.excludeSelf,
		Self:        self,
		Shape:       ht.Shape,
	}
	if ht.Arrival == ArrivalPeriodic {
		spec.Process = workload.Periodic
	}
	for _, tc := range ht.Classes {
		sz := tc.Size
		if sz == nil {
			if tc.FixedBytes <= 0 {
				return workload.Spec{}, fmt.Errorf("aequitas: class needs Size or FixedBytes")
			}
			sz = workload.Fixed{Bytes: tc.FixedBytes}
		}
		spec.Classes = append(spec.Classes, workload.ClassSpec{
			Priority: tc.Priority,
			Share:    tc.Share,
			Sizes:    sz,
			Deadline: sim.FromStd(tc.Deadline),
		})
	}
	return spec, nil
}
