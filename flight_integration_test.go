package aequitas

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"aequitas/internal/obs/flight"
	"aequitas/internal/sim"
)

// TestFlightDumpEndToEnd runs one instrumented simulation with a fault
// plan and checks the flight stream: schema-valid NDJSON, a fault-trigger
// dump per fault onset, and a final dump at run end.
func TestFlightDumpEndToEnd(t *testing.T) {
	plan, err := FaultPreset("flapcrash", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := faultTestConfig(7, plan)
	cfg.Obs.FlightNDJSON = &buf
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	dumps, records, err := flight.ValidateDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("flight dump invalid: %v", err)
	}
	if dumps < 2 {
		t.Fatalf("got %d dumps, want at least one fault trigger plus the final dump", dumps)
	}
	if records == 0 {
		t.Fatal("flight dumps carry no records")
	}
	out := buf.String()
	for _, want := range []string{`"trigger":"fault"`, `"trigger":"final"`, `"label":"aequitas"`} {
		if !strings.Contains(out, want) {
			t.Errorf("flight stream missing %s", want)
		}
	}
}

// TestFlightEngineTriggersInSim drives the anomaly engine from the sim's
// metrics cadence: the overloaded run misses SLOs far beyond the tiny
// budget, so a burn-rate dump must fire mid-run.
func TestFlightEngineTriggersInSim(t *testing.T) {
	var buf bytes.Buffer
	cfg := obsTestConfig(7)
	cfg.Obs.FlightNDJSON = &buf
	cfg.Obs.FlightEngine = &flight.EngineConfig{
		ShortWindow: 200 * sim.Microsecond,
		LongWindow:  sim.Millisecond,
		SLOBudget:   0.001,
		MinSamples:  20,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := flight.ValidateDump(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("flight dump invalid: %v", err)
	}
	if !strings.Contains(buf.String(), `"trigger":"burn_rate"`) {
		t.Fatal("overloaded run never fired the burn-rate trigger")
	}
}

// TestFlightDeterministicUnderParallel is the tentpole's golden
// criterion: with the flight recorder and a fault plan active, sweeping
// the same configs on 1, 4, and 8 workers produces byte-identical flight
// dumps — recording draws no randomness and reads only simulated time.
func TestFlightDeterministicUnderParallel(t *testing.T) {
	plan, err := FaultPreset("flapcrash", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	systems := []System{SystemAequitas, SystemBaseline}
	sweep := func(workers int) []string {
		bufs := make([]bytes.Buffer, len(systems))
		_, err := Sweep(len(systems), func(i int) SimConfig {
			cfg := faultTestConfig(7, plan)
			cfg.System = systems[i]
			cfg.Obs.FlightNDJSON = &bufs[i]
			return cfg
		}, ParallelOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(systems))
		for i := range systems {
			out[i] = bufs[i].String()
		}
		return out
	}
	ref := sweep(1)
	for i, d := range ref {
		if d == "" {
			t.Fatalf("config %d: empty flight stream", i)
		}
		if _, _, err := flight.ValidateDump(strings.NewReader(d)); err != nil {
			t.Fatalf("config %d: flight dump invalid: %v", i, err)
		}
	}
	for _, workers := range []int{4, 8} {
		got := sweep(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("config %d: flight dump differs between 1 and %d workers", i, workers)
			}
		}
	}
}

// TestFlightDumpsOnOnsetsOnly: the flight ring is dumped on fault onsets,
// not on repairs. A loss plan is one onset (the non-zero rate) and one
// repair (rate 0) of the same kind, so the stream holds exactly one
// fault-trigger dump, at the time of the one record whose Onset() is true.
func TestFlightDumpsOnOnsetsOnly(t *testing.T) {
	plan, err := FaultPreset("loss", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := faultTestConfig(7, plan)
	cfg.Obs.FlightNDJSON = &buf
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := flight.ValidateDump(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("flight dump invalid: %v", err)
	}
	if len(res.Faults) != 2 {
		t.Fatalf("got %d fault records, want the loss and its repair", len(res.Faults))
	}
	var wantDumps []string
	for i, f := range res.Faults {
		if f.Onset() != plan.Events[i].Onset() {
			t.Errorf("record %d (%s rate %g): Onset() = %v, the applied event said %v",
				i, f.Event, f.Rate, f.Onset(), plan.Events[i].Onset())
		}
		if f.Onset() {
			wantDumps = append(wantDumps, fmt.Sprintf(`"trigger":"fault","detail":"%s %s","label":"aequitas","ts_us":%.3f,`,
				f.Event, f.Target, f.TimeS*1e6))
		}
	}
	if len(wantDumps) != 1 {
		t.Fatalf("%d onset records, want 1", len(wantDumps))
	}
	out := buf.String()
	if n := strings.Count(out, `"trigger":"fault"`); n != 1 {
		t.Errorf("%d fault-trigger dumps, want 1 (a repair is not an onset)", n)
	}
	if !strings.Contains(out, wantDumps[0]) {
		t.Errorf("no dump header %s", wantDumps[0])
	}
}
