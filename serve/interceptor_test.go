package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"aequitas"
	"aequitas/internal/core"
	"aequitas/internal/sim"
)

// newManualController builds a controller on a shared ManualClock with a
// generous (10ms) SLO, so tests steer admission purely through SetDraw
// and explicit clock advances. Draw 0 admits everything (p_admit never
// falls below the floor); draw 2 downgrades every SLO-class request.
func newManualController(t testing.TB) (*aequitas.AdmissionController, *core.ManualClock) {
	t.Helper()
	clk := &core.ManualClock{}
	clk.SetNow(sim.Time(1)) // non-zero so "no estimate" never collides
	ctl, err := aequitas.NewControllerWithClock(aequitas.ControllerConfig{
		SLOs: []aequitas.SLO{
			{Target: 10 * time.Millisecond},
			{Target: 10 * time.Millisecond},
		},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	return ctl, clk
}

func callInterceptor(t testing.TB, icpt UnaryInterceptor, ctx context.Context, method string, h UnaryHandler) (any, error) {
	t.Helper()
	return icpt(ctx, "req", &UnaryServerInfo{FullMethod: method}, h)
}

func TestInterceptorVerdictPropagation(t *testing.T) {
	ctl, clk := newManualController(t)
	a, err := New(Config{Controller: ctl})
	if err != nil {
		t.Fatal(err)
	}
	icpt := a.UnaryInterceptor(nil)
	var got Verdict
	resp, err := callInterceptor(t, icpt, context.Background(), "/svc/Get",
		func(ctx context.Context, req any) (any, error) {
			v, ok := FromContext(ctx)
			if !ok {
				t.Fatal("verdict missing from handler context")
			}
			got = v
			clk.SetNow(clk.Now() + sim.Time(2*sim.Millisecond))
			return "resp", nil
		})
	if err != nil || resp != "resp" {
		t.Fatalf("interceptor = %v, %v", resp, err)
	}
	if got.Request.Peer != "/svc/Get" || got.Class != aequitas.High || got.Downgraded {
		t.Errorf("verdict = %+v", got)
	}
	// The 2ms handler ran inside the 10ms SLO, measured on the manual
	// clock, and landed as an SLO-met observation.
	cs := ctl.Stats()
	if cs.Admitted != 1 || cs.SLOMet != 1 || cs.SLOMisses != 0 {
		t.Errorf("stats = %+v", cs)
	}
	checkLedger(t, a, 1)
}

func TestInterceptorDowngradeAndReject(t *testing.T) {
	ctl, clk := newManualController(t)
	clk.SetDraw(2) // every draw fails: SLO-class RPCs downgrade
	a, err := New(Config{Controller: ctl})
	if err != nil {
		t.Fatal(err)
	}
	var downgraded bool
	_, err = callInterceptor(t, a.UnaryInterceptor(nil), context.Background(), "/svc/Get",
		func(ctx context.Context, req any) (any, error) {
			v, _ := FromContext(ctx)
			downgraded = v.Downgraded
			return nil, nil
		})
	if err != nil {
		t.Fatalf("downgraded RPC failed: %v", err)
	}
	if !downgraded {
		t.Error("verdict not marked downgraded")
	}

	// With RejectDowngraded, the same draw rejects without running the
	// handler.
	rej, err := New(Config{Controller: ctl, RejectDowngraded: true})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	_, err = callInterceptor(t, rej.UnaryInterceptor(nil), context.Background(), "/svc/Get",
		func(ctx context.Context, req any) (any, error) {
			ran = true
			return nil, nil
		})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if ran {
		t.Error("handler ran for a rejected RPC")
	}
	checkLedger(t, a, 1)
	checkLedger(t, rej, 1)
}

func TestInterceptorDeadlineRejection(t *testing.T) {
	ctl, clk := newManualController(t)
	a, err := New(Config{Controller: ctl, Deadline: &DeadlineConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	icpt := a.UnaryInterceptor(nil)

	// Train the latency floor: one completion taking 50ms on the manual
	// clock.
	if _, err := callInterceptor(t, icpt, context.Background(), "/svc/Get",
		func(ctx context.Context, req any) (any, error) {
			clk.SetNow(clk.Now() + sim.Time(50*sim.Millisecond))
			return nil, nil
		}); err != nil {
		t.Fatal(err)
	}

	// A context deadline well below the floor fails fast, before the
	// handler.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	ran := false
	_, err = callInterceptor(t, icpt, ctx, "/svc/Get",
		func(ctx context.Context, req any) (any, error) {
			ran = true
			return nil, nil
		})
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if ran {
		t.Error("handler ran for an expired RPC")
	}
	if cs := ctl.Stats(); cs.Expired != 1 {
		t.Errorf("ctl Expired = %d", cs.Expired)
	}
	if got := a.outcome(causeExpired); got != 1 {
		t.Errorf("serve expired counter = %d", got)
	}

	// A budget comfortably above the floor is served.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if _, err := callInterceptor(t, icpt, ctx2, "/svc/Get",
		func(ctx context.Context, req any) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("in-budget RPC failed: %v", err)
	}

	// An RPC without any deadline is never expired.
	if _, err := callInterceptor(t, icpt, context.Background(), "/svc/Get",
		func(ctx context.Context, req any) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("deadline-free RPC failed: %v", err)
	}
	checkLedger(t, a, 4)
}

func TestInterceptorMinBudget(t *testing.T) {
	ctl, _ := newManualController(t)
	a, err := New(Config{Controller: ctl, Deadline: &DeadlineConfig{MinBudget: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	// No floor learned yet, but the static MinBudget still rejects.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = callInterceptor(t, a.UnaryInterceptor(nil), ctx, "/svc/Get",
		func(ctx context.Context, req any) (any, error) { return nil, nil })
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	checkLedger(t, a, 1)
}

func TestInterceptorBrownoutShed(t *testing.T) {
	ctl, clk := newManualController(t)
	a, err := New(Config{Controller: ctl, Brownout: &BrownoutConfig{
		LatencyThreshold: time.Millisecond,
		Window:           time.Second,
		StepUpAfter:      1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	icpt := a.UnaryInterceptor(nil)
	slowHandler := func(ctx context.Context, req any) (any, error) {
		clk.SetNow(clk.Now() + sim.Time(5*sim.Millisecond))
		return nil, nil
	}
	// Two slow completions a window apart: the second one's evaluation
	// sees a 100% slow window and steps the ladder up.
	for i := 0; i < 2; i++ {
		if _, err := callInterceptor(t, icpt, context.Background(), "/svc/Get", slowHandler); err != nil {
			t.Fatal(err)
		}
		clk.SetNow(clk.Now() + sim.Time(2*sim.Second))
	}
	if lvl := a.BrownoutLevel(); lvl != BrownoutThinScavenger {
		t.Fatalf("brownout level = %d, want %d", lvl, BrownoutThinScavenger)
	}
	// Scavenger-class work is now shed without running; SLO-class work
	// still serves at this level.
	scavIcpt := a.UnaryInterceptor(func(_ context.Context, info *UnaryServerInfo, _ any) Request {
		return Request{Peer: info.FullMethod, Class: aequitas.Low}
	})
	ran := false
	_, err = scavIcpt(context.Background(), "req", &UnaryServerInfo{FullMethod: "/svc/Get"},
		func(ctx context.Context, req any) (any, error) { ran = true; return nil, nil })
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if ran {
		t.Error("handler ran for a shed RPC")
	}
	if got := a.outcome(causeShed); got == 0 {
		t.Error("shed counter not incremented")
	}
	if _, err := callInterceptor(t, icpt, context.Background(), "/svc/Get",
		func(ctx context.Context, req any) (any, error) { return nil, nil }); err != nil {
		t.Errorf("SLO-class RPC shed at thin-scavenger level: %v", err)
	}
	checkLedger(t, a, 4)
}
