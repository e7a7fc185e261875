package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
)

// failingDraws is a clock whose every admission draw fails: SLO-class
// requests are downgraded whatever their channel's p_admit.
type failingDraws struct{ core.Clock }

func (failingDraws) Float64() float64 { return 2 }

// testLayer builds the layer the benchmarks and the allocation tests
// drive, on clk (nil is the wall clock): bare, or hardened the way
// benchmark/inproc.go hardens it — a fail-open quota lease, the flight
// recorder with its anomaly engine, deadline budgets (minBudget is
// DeadlineConfig.MinBudget) and an armed brownout ladder whose threshold
// is out of reach. leaseTTL is the quota client's LeaseTTL: 0, the
// library default, refreshes the lease on every check; benchmark/inproc.go
// runs 100 ms.
func testLayer(tb testing.TB, clk core.Clock, hardened, reject bool, minBudget, leaseTTL time.Duration) *Admission {
	tb.Helper()
	ctl, err := aequitas.NewControllerWithClock(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{
			{Target: 500 * time.Microsecond},
			{Target: time.Millisecond},
		},
	}, clk)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Controller: ctl, RejectDowngraded: reject}
	if hardened {
		quota := core.NewQuotaServer(map[qos.Class]float64{qos.High: 1e6})
		if err := quota.Grant("bench", qos.High, 1e6); err != nil {
			tb.Fatal(err)
		}
		cli := quota.ClientWithClock("bench", ctl.Core().Clock())
		cli.LeaseTTL = leaseTTL
		ctl.SetQuota(cli, core.QuotaFailOpen)
		cfg.Flight = &FlightConfig{Engine: &flight.EngineConfig{}}
		cfg.Deadline = &DeadlineConfig{MinBudget: minBudget}
		cfg.Brownout = &BrownoutConfig{LatencyThreshold: time.Second}
	}
	a, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// nopResponseWriter avoids httptest.ResponseRecorder allocations so the
// benchmark measures the admission layer, not the test harness.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (nopResponseWriter) WriteHeader(int)               {}

// benchRequest is the request every benchmark and allocation test sends.
func benchRequest() *http.Request {
	req := httptest.NewRequest("GET", "/backend", nil)
	req.Header.Set(HeaderClass, "QoSh")
	return req
}

// BenchmarkServeMiddleware measures one full middleware pass — classify,
// admit, response headers, handler dispatch, observe, histogram record —
// per outcome: served on a bare and on a hardened layer, served
// downgraded, and refused under RejectDowngraded; then the hardened pass
// in parallel.
func BenchmarkServeMiddleware(b *testing.B) {
	for _, bc := range []struct {
		name             string
		clk              core.Clock
		hardened, reject bool
	}{
		{"bare", nil, false, false},
		{"hardened", nil, true, false},
		{"downgraded", failingDraws{core.NewWallClock()}, true, false},
		{"refused", failingDraws{core.NewWallClock()}, true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := testLayer(b, bc.clk, bc.hardened, bc.reject, 0, 0)
			h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
			req := benchRequest()
			w := nopResponseWriter{h: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
	// The hardened pass on GOMAXPROCS goroutines (run it at -cpu 1,2),
	// every one cycling through the same 64 peers x 3 classes, as the
	// serve-inproc workload does: what requests on different cores still
	// share shows in ns/op, and as the time goroutines spent blocked on a
	// mutex, per request. Its quota lease lives 100 ms, as serve-inproc's
	// does, so a check on the no-grant class takes no lock.
	b.Run("hardened-parallel", func(b *testing.B) {
		a := testLayer(b, nil, true, false, 0, 100*time.Millisecond)
		h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		var reqs []*http.Request
		for p := 0; p < 64; p++ {
			for _, class := range []string{"QoSh", "QoSm", "QoSl"} {
				req := benchRequest()
				req.Header.Set(HeaderPeer, "peer-"+strconv.Itoa(p))
				req.Header.Set(HeaderClass, class)
				reqs = append(reqs, req)
			}
		}
		var workers atomic.Int64
		wait := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
		metrics.Read(wait)
		wait0 := wait[0].Value.Float64()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// Each goroutine starts at its own offset into the shared set.
			i := int(workers.Add(1)) * 61
			w := nopResponseWriter{h: make(http.Header)}
			for pb.Next() {
				h.ServeHTTP(w, reqs[i%len(reqs)])
				i++
			}
		})
		b.StopTimer()
		metrics.Read(wait)
		b.ReportMetric((wait[0].Value.Float64()-wait0)*1e9/float64(b.N), "mutex-wait-ns/op")
	})
}

// BenchmarkServeMiddlewareParallel is the bare pass under GOMAXPROCS-way
// concurrency.
func BenchmarkServeMiddlewareParallel(b *testing.B) {
	a := testLayer(b, nil, false, false, 0, 0)
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := benchRequest()
		w := nopResponseWriter{h: make(http.Header)}
		for pb.Next() {
			h.ServeHTTP(w, req)
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// nopUnaryHandler is a package variable so that no caller can be compiled
// knowing what it does with its context: inlined into a loop with a local
// handler, the interceptor's context node stays on the stack, which it
// cannot under an RPC framework.
var nopUnaryHandler UnaryHandler = func(context.Context, any) (any, error) { return nil, nil }

// BenchmarkServeInterceptor measures one served pass through the
// interceptor on the hardened layer: the same begin/end with no HTTP
// around it.
func BenchmarkServeInterceptor(b *testing.B) {
	a := testLayer(b, nil, true, false, 0, 0)
	icpt := a.UnaryInterceptor(nil)
	info := &UnaryServerInfo{FullMethod: "/backend"}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		icpt(ctx, nil, info, nopUnaryHandler)
	}
}
