package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// TestFlightTapRecordsDecisionsAndObservations checks the controller's
// flight tap end to end: decisions carry the p_admit consulted and the
// verdict, observations carry the measured latency and the SLO outcome.
func TestFlightTapRecordsDecisionsAndObservations(t *testing.T) {
	clk := &ManualClock{}
	ct, err := NewWithClock(Defaults3(2*sim.Microsecond, 4*sim.Microsecond), clk)
	if err != nil {
		t.Fatal(err)
	}
	ring := flight.NewRing(flight.Config{Records: 1 << 10, SampleAdmits: 1})
	ct.SetFlight(ring, 3)

	clk.SetNow(1 * sim.Microsecond)
	clk.SetDraw(0.5)
	if d := ct.Admit(7, qos.High, 2); d.Downgraded || d.Dropped {
		t.Fatalf("fresh channel should admit, got %+v", d)
	}
	// Miss the SLO hard so p_admit falls below the next draw.
	clk.SetNow(2 * sim.Microsecond)
	for i := 0; i < 60; i++ {
		ct.Observe(7, qos.High, 100*sim.Microsecond, 1)
	}
	clk.SetNow(3 * sim.Microsecond)
	if d := ct.Admit(7, qos.High, 1); !d.Downgraded {
		t.Fatalf("collapsed channel should downgrade, got %+v", d)
	}

	recs := ring.Snapshot(false)
	var admits, downs, misses int
	for _, r := range recs {
		if r.Src != 3 || r.Peer != 7 {
			t.Fatalf("record carries src %d peer %d, want 3/7", r.Src, r.Peer)
		}
		switch {
		case r.Kind == flight.KindDecision && r.Verdict == flight.VerdictAdmit:
			admits++
			if r.PAdmit != 1 || r.SizeMTUs != 2 {
				t.Fatalf("admit record = %+v", r)
			}
		case r.Kind == flight.KindDecision && r.Verdict == flight.VerdictDowngrade:
			downs++
			if r.PAdmit >= 0.5 {
				t.Fatalf("downgrade recorded p_admit %v, want the collapsed value", r.PAdmit)
			}
			if r.Class != int8(ct.lowest) || r.Requested != int8(qos.High) {
				t.Fatalf("downgrade classes = %+v", r)
			}
		case r.Kind == flight.KindComplete && r.Verdict == flight.VerdictSLOMiss:
			misses++
			if r.LatencyUS != 100 {
				t.Fatalf("miss latency = %v µs, want 100", r.LatencyUS)
			}
		}
	}
	if admits != 1 || downs != 1 || misses != 60 {
		t.Fatalf("recorded %d admits, %d downgrades, %d misses; want 1/1/60", admits, downs, misses)
	}
}

// TestFlightTapDropVerdict checks the drop-configured controller records
// drops rather than downgrades.
func TestFlightTapDropVerdict(t *testing.T) {
	cfg := Defaults3(2*sim.Microsecond, 4*sim.Microsecond)
	cfg.DropInsteadOfDowngrade = true
	clk := &ManualClock{}
	ct, err := NewWithClock(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	ring := flight.NewRing(flight.Config{Records: 1 << 10, SampleAdmits: 1})
	ct.SetFlight(ring, 0)
	for i := 0; i < 60; i++ {
		ct.Observe(0, qos.High, 100*sim.Microsecond, 1)
	}
	clk.SetDraw(0.9)
	if d := ct.Admit(0, qos.High, 1); !d.Dropped {
		t.Fatalf("want drop, got %+v", d)
	}
	var drops int
	for _, r := range ring.Snapshot(false) {
		if r.Verdict == flight.VerdictDrop {
			drops++
		}
	}
	if drops != 1 {
		t.Fatalf("recorded %d drops, want 1", drops)
	}
}

// TestQuotaBypassRecorded checks the quota branch's bypass tap.
func TestQuotaBypassRecorded(t *testing.T) {
	clk := &ManualClock{}
	ct, err := NewWithClock(Defaults3(2*sim.Microsecond, 4*sim.Microsecond), clk)
	if err != nil {
		t.Fatal(err)
	}
	ring := flight.NewRing(flight.Config{Records: 1 << 10, SampleAdmits: 1})
	ct.SetFlight(ring, 0)
	qs := NewQuotaServer(map[qos.Class]float64{qos.High: 1e9})
	if err := qs.Grant("tenant", qos.High, 1e9); err != nil {
		t.Fatal(err)
	}
	ct.SetQuota(qs.ClientWithClock("tenant", clk), QuotaFailOpen)
	if d := ct.Admit(1, qos.High, 1); d.Downgraded || d.Dropped {
		t.Fatalf("in-quota RPC not admitted: %+v", d)
	}
	recs := ring.Snapshot(false)
	if len(recs) != 1 || recs[0].Quota != flight.QuotaBypass {
		t.Fatalf("quota bypass not recorded: %+v", recs)
	}
}

// TestAdmitFlightEnabledNoAllocs pins the acceptance criterion: with the
// flight recorder attached, the admit fast path still performs zero
// allocations per decision.
func TestAdmitFlightEnabledNoAllocs(t *testing.T) {
	ct := MustNew(Defaults3(2*sim.Microsecond, 4*sim.Microsecond))
	for dst := 0; dst < 64; dst++ {
		ct.Observe(dst, qos.High, sim.Microsecond, 1)
	}
	ct.SetFlight(flight.NewRing(flight.Config{}), 0)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		ct.Admit(i&63, qos.High, 1)
		i++
	}); n != 0 {
		t.Fatalf("admit with flight recording allocates %v per op, want 0", n)
	}
}

// TestObserveFlightEnabledNoAllocs pins the same budget on the AIMD
// feedback path.
func TestObserveFlightEnabledNoAllocs(t *testing.T) {
	ct := MustNew(Defaults3(2*sim.Microsecond, 4*sim.Microsecond))
	ct.SetFlight(flight.NewRing(flight.Config{}), 0)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		ct.Observe(i&63, qos.High, sim.Microsecond, 1)
		i++
	}); n != 0 {
		t.Fatalf("observe with flight recording allocates %v per op, want 0", n)
	}
}

// TestConcurrentFlightSet records from eight goroutines into a ring of
// four P stripes while a ninth dumps it, resetting it on every other
// dump, at 1-in-1 and 1-in-8 sampling: every record offered is kept in
// exactly one resetting dump (the last one included) or sampled out, and
// every dump validates. The ring is large enough that no shard laps.
func TestConcurrentFlightSet(t *testing.T) {
	for _, sample := range []int{1, 8} {
		t.Run(fmt.Sprintf("sample=%d", sample), func(t *testing.T) {
			ct := MustNew(Defaults3(2*sim.Microsecond, 4*sim.Microsecond))
			set := flight.NewRing(flight.Config{Records: 1 << 16, SampleAdmits: sample, Stripes: 4})
			ct.SetFlight(set, 0)
			const workers, ops = 8, 500
			var (
				kept, peeked bytes.Buffer // the resetting dumps, the others
				offered      atomic.Uint64
				wg, dumper   sync.WaitGroup
			)
			manual := flight.Meta{Trigger: flight.Trigger{Kind: flight.TriggerManual}}
			stop := make(chan struct{})
			dumper.Add(1)
			go func() {
				defer dumper.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					w, reset := &peeked, i%2 == 0
					if reset {
						w = &kept
					}
					if err := set.Dump(w, manual, reset); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						dst := (w*ops + i) % 64
						d := ct.Admit(dst, qos.Class(i%3), 1)
						rnl := sim.Microsecond
						if i%5 == 0 {
							rnl = 10 * sim.Microsecond
						}
						ct.Observe(dst, d.Class, rnl, 1)
						offered.Add(1) // the decision
						if d.Class < ct.Scavenger() {
							offered.Add(1) // the SLO observation
						}
						if i%16 == 0 {
							runtime.Gosched() // let dumps land between records
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			dumper.Wait()
			final := flight.Meta{Trigger: flight.Trigger{Kind: flight.TriggerFinal}}
			if err := set.Dump(&kept, final, true); err != nil {
				t.Fatal(err)
			}
			peeks, _, err := flight.ValidateDump(&peeked)
			if err != nil {
				t.Fatalf("non-resetting dump %d does not validate: %v", peeks, err)
			}
			dumps, records, err := flight.ValidateDump(&kept)
			if err != nil {
				t.Fatalf("resetting dump %d does not validate: %v", dumps, err)
			}
			st := set.Stats()
			if st.Offered != offered.Load() {
				t.Errorf("set offered %d records, the workers %d", st.Offered, offered.Load())
			}
			if got := uint64(records) + st.SampledOut; got != st.Offered {
				t.Errorf("%d records in %d dumps + %d sampled out = %d, want the %d offered (%d lost)",
					records, dumps, st.SampledOut, got, st.Offered, st.Offered-got)
			}
			if (st.SampledOut == 0) != (sample == 1) {
				t.Errorf("1-in-%d sampling skipped %d records", sample, st.SampledOut)
			}
			t.Logf("%d + %d dumps, %d records, %d sampled out, %d lost", dumps, peeks, records, st.SampledOut, st.Offered-uint64(records)-st.SampledOut)
		})
	}
}
