package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"runtime"
	"sync"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/sim"
)

// TestRequestPathAllocs pins the allocations the layer makes per request
// on a manual clock, bare and hardened. A served request costs nothing:
// its handler reads the verdict from the response headers, whose values
// are shared. A refusal costs the three http.Error makes (two header
// values and the body's trip through fmt), an interceptor pass the
// context node that carries the verdict, and an RPC the interceptor
// refuses nothing.
func TestRequestPathAllocs(t *testing.T) {
	// A fresh quota bucket admits its burst (six of these requests)
	// without a draw, and the manual clock never refills it: every
	// measurement starts after it. AllocsPerRun calls f once more than
	// it counts.
	const warm, runs = 32, 200
	measure := func(f func()) float64 {
		for i := 0; i < warm; i++ {
			f()
		}
		return testing.AllocsPerRun(runs, f)
	}
	for _, hardened := range []bool{false, true} {
		for _, tc := range []struct {
			name   string
			draw   float64
			reject bool
			budget string
			cause  cause
			max    float64
		}{
			{"served admitted", 0, false, "", causeAdmitted, 0},
			{"served downgraded", 2, false, "", causeDowngraded, 0},
			{"refused", 2, true, "", causeRejected, 3},
			{"expired", 0, false, "1ms", causeExpired, 3},
		} {
			if tc.budget != "" && !hardened {
				continue // the bare layer reads no budgets
			}
			clk := &core.ManualClock{}
			clk.SetNow(sim.Time(1))
			clk.SetDraw(tc.draw)
			a := testLayer(t, clk, hardened, tc.reject, 2*time.Millisecond, 0)
			h := a.Middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
			req := benchRequest()
			if tc.budget != "" {
				req.Header.Set(HeaderDeadline, tc.budget)
			}
			// Converted once: boxing a writer per call would be counted.
			var w http.ResponseWriter = nopResponseWriter{h: make(http.Header)}
			got := measure(func() { h.ServeHTTP(w, req) })
			if n := a.outcome(tc.cause); got > tc.max || n < runs+1 {
				t.Errorf("hardened=%v %s: %v allocs per request (want at most %v), %d of %d requests had that outcome",
					hardened, tc.name, got, tc.max, n, warm+runs+1)
			}
			t.Logf("hardened=%v %s: %v allocs per request", hardened, tc.name, got)
			checkLedger(t, a, warm+runs+1)
		}

		clk := &core.ManualClock{}
		clk.SetNow(sim.Time(1))
		a := testLayer(t, clk, hardened, false, 0, 0)
		icpt := a.UnaryInterceptor(nil)
		info := &UnaryServerInfo{FullMethod: "/backend"}
		if got := measure(func() { icpt(context.Background(), nil, info, nopUnaryHandler) }); got > 1 {
			t.Errorf("hardened=%v: %v allocs per intercepted RPC, want at most 1", hardened, got)
		}
		clk.SetDraw(2)
		refusing := testLayer(t, clk, hardened, true, 0, 0).UnaryInterceptor(nil)
		if got := measure(func() { refusing(context.Background(), nil, info, nopUnaryHandler) }); got != 0 {
			t.Errorf("hardened=%v: %v allocs per refused RPC, want 0", hardened, got)
		}
		var v Verdict
		ctx := context.Context(&verdictCtx{context.Background(), Verdict{Class: aequitas.Medium}})
		if got := measure(func() { v, _ = FromContext(ctx) }); got != 0 || v.Class != aequitas.Medium {
			t.Errorf("FromContext: %v allocs, verdict %+v", got, v)
		}
	}
}

// TestHeaderConstantsCanonical: the layer indexes header maps with these
// constants directly, which equals Header.Get and Header.Set only for
// keys in canonical form.
func TestHeaderConstantsCanonical(t *testing.T) {
	for _, k := range []string{HeaderClass, HeaderPeer, HeaderDowngraded, HeaderShed, HeaderDeadline, HeaderExpired, headerRetryAfter} {
		if c := textproto.CanonicalMIMEHeaderKey(k); c != k {
			t.Errorf("header constant %q is not canonical (%q)", k, c)
		}
	}
}

// TestVerdictContext: the node that carries an RPC's verdict is a
// context like any other to the handler — the parent's values, deadline
// and cancellation show through it, contexts derived from it are
// cancelled with the call without a goroutine to forward the
// cancellation, and of two nested interceptors the inner one's verdict
// wins.
func TestVerdictContext(t *testing.T) {
	type parentKey struct{}
	cause := errors.New("client went away")
	parent, cancel := context.WithCancelCause(context.WithValue(context.Background(), parentKey{}, "parent"))
	parent, cancelDeadline := context.WithDeadline(parent, time.Now().Add(time.Hour))
	defer cancelDeadline()
	wantDeadline, _ := parent.Deadline()

	layer := func(peer string) (*Admission, UnaryInterceptor) {
		a, err := New(Config{Controller: newController(t)})
		if err != nil {
			t.Fatal(err)
		}
		return a, a.UnaryInterceptor(func(context.Context, *UnaryServerInfo, any) Request { return Request{Peer: peer} })
	}
	outer, outerIcpt := layer("outer")
	inner, innerIcpt := layer("inner")
	info := &UnaryServerInfo{FullMethod: "/rpc"}
	outerIcpt(parent, nil, info, func(ctx context.Context, req any) (any, error) {
		return innerIcpt(ctx, req, info, func(ctx context.Context, _ any) (any, error) {
			if v, ok := FromContext(ctx); !ok || v.Request.Peer != "inner" {
				t.Errorf("verdict = %+v, %v, want the inner layer's", v, ok)
			}
			if got := ctx.Value(parentKey{}); got != "parent" {
				t.Errorf("parent value = %v", got)
			}
			if dl, ok := ctx.Deadline(); !ok || !dl.Equal(wantDeadline) {
				t.Errorf("deadline = %v, %v", dl, ok)
			}
			if ctx.Err() != nil {
				t.Errorf("Err before cancel = %v", ctx.Err())
			}
			before := runtime.NumGoroutine()
			child, stop := context.WithCancel(ctx)
			defer stop()
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("deriving a context started %d goroutines", n-before)
			}
			go cancel(cause)
			select {
			case <-child.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("derived context not cancelled with the call")
			}
			<-ctx.Done()
			if ctx.Err() != context.Canceled || context.Cause(ctx) != cause || context.Cause(child) != cause {
				t.Errorf("after cancel: Err %v, Cause %v, derived Cause %v", ctx.Err(), context.Cause(ctx), context.Cause(child))
			}
			return nil, nil
		})
	})
	checkLedger(t, outer, 1)
	checkLedger(t, inner, 1)

	if _, ok := FromContext(parent); ok {
		t.Error("FromContext found a verdict outside the layer")
	}
}

// TestNestedMiddlewareVerdict: the middleware hands its handler the
// caller's request itself, and behind two nested layers both verdict
// headers are the inner one's, so the downgrade mark always belongs to
// the class beside it — whichever of the two layers downgraded.
func TestNestedMiddlewareVerdict(t *testing.T) {
	layer := func(draw float64) *Admission {
		ctl, clk := newManualController(t)
		clk.SetDraw(draw)
		a, err := New(Config{Controller: ctl})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, tc := range []struct {
		outerDraw, innerDraw float64
		class, mark          string
	}{
		{2, 0, "QoSh", ""}, // the outer layer downgrades, the inner admits
		{0, 2, "QoSl", "1"},
	} {
		outer, inner := layer(tc.outerDraw), layer(tc.innerDraw)
		req := benchRequest()
		check := func(where string, h http.Header) {
			if c, d := headerValue(h, HeaderClass), headerValue(h, HeaderDowngraded); c != tc.class || d != tc.mark {
				t.Errorf("draws %v/%v, %s: %s %q, %s %q; want %q, %q",
					tc.outerDraw, tc.innerDraw, where, HeaderClass, c, HeaderDowngraded, d, tc.class, tc.mark)
			}
		}
		h := outer.Middleware(inner.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r != req {
				t.Error("the handler received a copy of the caller's request")
			}
			check("handler", w.Header())
		})))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		check("response", rec.Header())
		checkLedger(t, outer, 1)
		checkLedger(t, inner, 1)
	}
}

// TestSharedHeaderValues: the response-header values are shared by every
// response, so a handler that appends to one must get a copy. Under
// -race, a handler that wrote through to the shared value would also
// race with its neighbours.
func TestSharedHeaderValues(t *testing.T) {
	ctl, clk := newManualController(t)
	clk.SetDraw(2)
	a, err := New(Config{Controller: ctl})
	if err != nil {
		t.Fatal(err)
	}
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add(HeaderClass, "x")
		w.Header().Add(HeaderDowngraded, "x")
	}))
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, benchRequest())
				if got := rec.Header()[HeaderClass]; len(got) != 2 || got[0] != "QoSl" || got[1] != "x" {
					t.Errorf("handler's view of %s = %q", HeaderClass, got)
				}
			}
		}()
	}
	wg.Wait()
	rec := httptest.NewRecorder()
	a.Middleware(httpOK()).ServeHTTP(rec, benchRequest())
	if c, d := rec.Header()[HeaderClass], rec.Header()[HeaderDowngraded]; len(c) != 1 || c[0] != "QoSl" || len(d) != 1 || d[0] != "1" {
		t.Errorf("a later response carries %q / %q", c, d)
	}
	checkLedger(t, a, workers*each+1)
}
