package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/netsim"
	"aequitas/internal/obs"
	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/stats"
	"aequitas/internal/transport"
	"aequitas/internal/wfq"
	"aequitas/internal/workload"
	"aequitas/serve"
)

// A rung is one layer's public entry point called in a tight loop on a
// single goroutine: the isolated cost the end-to-end numbers are built
// from. build does the set-up and returns the call to time.
type rung struct {
	name  string
	build func() (func(i int), error)
}

// rungSlices and rungSlice: each rung is timed for 5 slices of at least
// 200 ms and the median slice is reported, so one preempted slice does
// not move the number.
const (
	rungSlices = 5
	rungSlice  = 200 * time.Millisecond
)

var sink float64 // keeps rung results live so calls are not optimised away

func timeRung(r rung, slice time.Duration) (float64, error) {
	call, err := r.build()
	if err != nil {
		return 0, fmt.Errorf("rung %s: %w", r.name, err)
	}
	// Size a batch to about 1 ms so the clock is read rarely.
	batch, i := 64, 0
	for {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			call(i)
			i++
		}
		if d := time.Since(t0); d >= time.Millisecond || batch >= 1<<24 {
			break
		}
		batch *= 2
	}
	var perCall []float64
	for s := 0; s < rungSlices; s++ {
		var calls int
		t0 := time.Now()
		var d time.Duration
		for d < slice {
			for k := 0; k < batch; k++ {
				call(i)
				i++
			}
			calls += batch
			d = time.Since(t0)
		}
		perCall = append(perCall, float64(d.Nanoseconds())/float64(calls))
	}
	return median(perCall), nil
}

func runRungs(r *result, p params, rungs []rung) {
	slice := time.Duration(float64(rungSlice) * p.scale)
	for _, rg := range rungs {
		ns, err := timeRung(rg, slice)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		r.set(rg.name, ns)
	}
}

// benchItem is a packet as far as a scheduler cares.
type benchItem struct{ size, class int }

func (b *benchItem) SizeBytes() int { return b.size }
func (b *benchItem) QoS() int       { return b.class }
func (b *benchItem) Urgency() int64 { return 0 }

// loopEvent re-arms itself, holding the event heap at a fixed depth.
type loopEvent struct{ gap sim.Duration }

func (e *loopEvent) Run(s *sim.Simulator) { s.After(e.gap, e) }

// packetRungs are the per-packet layers: they should explain ns_per_op on
// sim-large-rpc (231 events and 57 packets per RPC).
var packetRungs = []rung{
	{"sim.step_ns", func() (func(int), error) {
		s := sim.New(1)
		evs := make([]loopEvent, 1024)
		for i := range evs {
			evs[i].gap = sim.Duration(i + 1) // distinct gaps keep the heap ordered, not FIFO
			s.After(evs[i].gap, &evs[i])
		}
		return func(int) { s.Step() }, nil
	}},
	{"wfq.enq_deq_ns", func() (func(int), error) {
		w := wfq.NewWFQ([]float64{8, 4, 1}, 0)
		items := make([]benchItem, 192)
		for i := range items {
			items[i] = benchItem{size: 1500, class: i % 3}
			w.Enqueue(&items[i])
		}
		return func(int) { w.Enqueue(w.Dequeue()) }, nil
	}},
	{"transport.send_16k_ns", func() (func(int), error) {
		net, err := netsim.New(netsim.Config{
			Hosts:       2,
			SwitchSched: func() wfq.Scheduler { return wfq.NewWFQ([]float64{8, 4, 1}, 2<<20) },
		})
		if err != nil {
			return nil, err
		}
		cfg := transport.Config{NewCC: func() transport.CC { return transport.SwiftDefaults(10 * sim.Microsecond) }}
		src := transport.NewEndpoint(net, net.Host(0), cfg)
		transport.NewEndpoint(net, net.Host(1), cfg)
		s := sim.New(1)
		return func(i int) {
			m := transport.Message{ID: uint64(i + 1), Dst: 1, Class: qos.High, Bytes: 16 << 10}
			src.Send(s, &m)
			s.Run() // delivery and the ack path included
		}, nil
	}},
}

// perRPCRungs are the per-RPC layers: they should explain ns_per_op on
// sim-small-rpc, where an RPC is 11 events and 2.5 packets.
var perRPCRungs = []rung{
	{"workload.size_sample_ns", func() (func(int), error) {
		d, rng := workload.ProductionPC(), rand.New(rand.NewSource(1))
		return func(int) { sink += float64(d.Sample(rng)) }, nil
	}},
	{"stats.hist_record_ns", func() (func(int), error) {
		h, xs := stats.NewHist(), skewed(4096)
		return func(i int) { h.Record(xs[i&4095]) }, nil
	}},
	{"stats.sample_add_ns", func() (func(int), error) {
		// The exact sample the collector keeps per class, started afresh
		// every million adds, about a rep's worth, so that it grows as it
		// does in a run and not without bound.
		s, xs := new(stats.Sample), skewed(4096)
		return func(i int) {
			if i&(1<<20-1) == 0 {
				s = new(stats.Sample)
			}
			s.Add(xs[i&4095])
		}, nil
	}},
	{"core.admit_ns", admitRung(false)},
	{"core.observe_ns", observeRung},
}

func skewed(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 10 * (1 + rng.ExpFloat64()*rng.ExpFloat64())
	}
	return xs
}

// warmCore is a wall-clock controller with 64 live channels, a serving
// process at steady state.
func warmCore() *core.Controller {
	ct := core.MustNew(core.Defaults3(2*sim.Microsecond, 4*sim.Microsecond))
	for dst := 0; dst < 64; dst++ {
		ct.Observe(dst, qos.High, sim.Microsecond, 1)
	}
	return ct
}

func admitRung(withFlight bool) func() (func(int), error) {
	return func() (func(int), error) {
		ct := warmCore()
		if withFlight {
			ct.SetFlight(flight.NewRing(flight.Config{}), 0)
		}
		return func(i int) { ct.Admit(i&63, qos.High, 1) }, nil
	}
}

func observeRung() (func(int), error) {
	ct := warmCore()
	return func(i int) { ct.Observe(i&63, qos.High, sim.Microsecond, 1) }, nil
}

// serveRungs climb from the clock to the HTTP middleware: the table of
// where the time between a 35 ns decision and a ~1 us request goes. They
// should explain ns_per_op and allocs_per_op on serve-inproc.
var serveRungs = []rung{
	{"clock.now_draw_ns", func() (func(int), error) {
		clk := core.NewWallClock()
		return func(int) { sink += float64(clk.Now()) + clk.Float64() }, nil
	}},
	{"core.admit_ns", admitRung(false)},
	{"core.observe_ns", observeRung},
	{"core.admit_flight_ns", admitRung(true)},
	{"flight.decision_ns", func() (func(int), error) {
		ring := flight.NewRing(flight.Config{})
		return func(i int) {
			ring.Decision(sim.Time(i), 0, int32(i&63), 0, 0, flight.VerdictAdmit, 1, 1)
		}, nil
	}},
	{"quota.check_ns", func() (func(int), error) {
		_, client, err := quotaPlane()
		if err != nil {
			return nil, err
		}
		return func(int) { client.Check(qos.High, 1436) }, nil
	}},
	{"facade.admit_ns", func() (func(int), error) {
		ctl, peers, err := warmFacade()
		if err != nil {
			return nil, err
		}
		return func(i int) { ctl.Admit(peers[i&63], aequitas.High, 4096) }, nil
	}},
	{"facade.observe_ns", func() (func(int), error) {
		ctl, peers, err := warmFacade()
		if err != nil {
			return nil, err
		}
		return func(i int) { ctl.Observe(peers[i&63], aequitas.High, time.Microsecond, 4096) }, nil
	}},
	{"serve.middleware_bare_ns", middlewareRung(false)},
	{"serve.middleware_hardened_ns", middlewareRung(true)},
	{"serve.interceptor_ns", func() (func(int), error) {
		a, err := newAdmission(true, nil)
		if err != nil {
			return nil, err
		}
		icpt := a.UnaryInterceptor(nil)
		info := &serve.UnaryServerInfo{FullMethod: "/bench/Call"}
		h := func(context.Context, any) (any, error) { return nil, nil }
		ctx := context.Background()
		return func(int) { icpt(ctx, nil, info, h) }, nil
	}},
	{"serve.metrics_render_ns", func() (func(int), error) {
		a, err := warmAdmission()
		if err != nil {
			return nil, err
		}
		snap := a.Snapshot()
		return func(int) { obs.WriteProm(io.Discard, snap) }, nil
	}},
	{"serve.snapshot_ns", func() (func(int), error) {
		a, err := warmAdmission()
		if err != nil {
			return nil, err
		}
		return func(int) { a.Snapshot() }, nil
	}},
}

func warmFacade() (*aequitas.AdmissionController, []string, error) {
	ctl, err := aequitas.NewController(aequitas.ControllerConfig{SLOs: inprocSLOs})
	if err != nil {
		return nil, nil, err
	}
	peers := peerNames(64)
	for _, p := range peers {
		ctl.Observe(p, aequitas.High, time.Microsecond, 4096)
	}
	return ctl, peers, nil
}

// warmAdmission is a hardened layer that has served the request table
// once, so its snapshot carries 64 peers' gauges and three histograms.
func warmAdmission() (*serve.Admission, error) {
	a, err := newAdmission(true, nil)
	if err != nil {
		return nil, err
	}
	h := a.Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	w := nopResponseWriter{h: make(http.Header)}
	for _, req := range requestTable(1) {
		h.ServeHTTP(w, req)
	}
	return a, nil
}

func middlewareRung(hardened bool) func() (func(int), error) {
	return func() (func(int), error) {
		a, err := newAdmission(hardened, nil)
		if err != nil {
			return nil, err
		}
		h := a.Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
		w := nopResponseWriter{h: make(http.Header)}
		table := requestTable(1)
		return func(i int) { h.ServeHTTP(w, table[i&(len(table)-1)]) }, nil
	}
}
