package aequitas

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// attrTestConfig is obsTestConfig with an RTO floor above the simulated
// horizon: with go-back-N and cumulative acks, any drop then blocks its
// RPC's completion forever, so every *completed* RPC is retransmit-free
// and its decomposition components are individually non-negative.
func attrTestConfig(system System, seed int64) SimConfig {
	cfg := obsTestConfig(seed)
	cfg.System = system
	cfg.RTOMin = 50 * time.Millisecond
	return cfg
}

// TestAttributionSumsToRNL is the golden criterion: for every completed
// RPC, the decomposition components are non-negative and sum to the
// measured RNL within one microsecond-formatting ulp (the internal sum is
// exact in picoseconds; only the CSV float conversion rounds).
func TestAttributionSumsToRNL(t *testing.T) {
	for _, system := range []System{SystemBaseline, SystemAequitas} {
		var csv bytes.Buffer
		cfg := attrTestConfig(system, 7)
		cfg.Obs.AttributionCSV = &csv
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}

		lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: no attribution records", system)
		}
		if lines[0] != "rpc,src,dst,class,issue_s,admit_us,sender_us,transport_us,pacing_us,nic_us,switch_us,wire_us,rnl_us" {
			t.Fatalf("%s: header = %q", system, lines[0])
		}
		names := strings.Split(lines[0], ",")
		withTransport := 0
		for ln, line := range lines[1:] {
			f := strings.Split(line, ",")
			if len(f) != len(names) {
				t.Fatalf("%s: row %d has %d fields", system, ln+2, len(f))
			}
			v := make([]float64, len(f))
			for i := 5; i < len(f); i++ {
				x, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					t.Fatalf("%s: row %d col %s: %v", system, ln+2, names[i], err)
				}
				v[i] = x
			}
			sum := 0.0
			for i := 5; i < 12; i++ { // admit..wire
				if v[i] < -1e-9 {
					t.Fatalf("%s: row %d: negative %s = %g", system, ln+2, names[i], v[i])
				}
				sum += v[i]
			}
			rnl := v[12]
			if rnl <= 0 {
				t.Fatalf("%s: row %d: non-positive rnl %g", system, ln+2, rnl)
			}
			if math.Abs(sum-rnl) > 1e-3 {
				t.Fatalf("%s: row %d: components sum to %g us, rnl is %g us", system, ln+2, sum, rnl)
			}
			if v[7] > 0 || v[9] > 0 { // transport_us, nic_us
				withTransport++
			}
		}
		// The standard transport is instrumented, so the decomposition must
		// not be all-Wire.
		if withTransport == 0 {
			t.Errorf("%s: no record carries transport/NIC time", system)
		}

		if len(res.Attribution) == 0 {
			t.Fatalf("%s: Results.Attribution empty", system)
		}
		for cl, a := range res.Attribution {
			if a.N == 0 || a.RNLUS <= 0 {
				t.Errorf("%s: class %v attribution = %+v", system, cl, a)
			}
			comp := a.AdmitUS + a.SenderUS + a.TransportUS + a.PacingUS + a.NICUS + a.SwitchUS + a.WireUS
			if math.Abs(comp-a.RNLUS) > 1e-6 {
				t.Errorf("%s: class %v means sum to %g, RNL mean %g", system, cl, comp, a.RNLUS)
			}
		}
	}
}

// TestAttributionDeterministicUnderParallel: the attribution CSV is
// byte-identical when the sweep runs on one worker and on GOMAXPROCS
// workers. D3 is included because its shared deadline fabric restarts
// flows on every completion — that restart must happen in flow-id
// order, not map order, for runs to be reproducible at all.
func TestAttributionDeterministicUnderParallel(t *testing.T) {
	systems := []System{SystemBaseline, SystemAequitas, SystemD3}
	sweep := func(workers int) []string {
		bufs := make([]bytes.Buffer, len(systems))
		_, err := Sweep(len(systems), func(i int) SimConfig {
			cfg := attrTestConfig(systems[i], 7)
			cfg.Obs.AttributionCSV = &bufs[i]
			return cfg
		}, ParallelOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(bufs))
		for i := range bufs {
			out[i] = bufs[i].String()
		}
		return out
	}
	serial := sweep(1)
	parallel := sweep(runtime.GOMAXPROCS(0))
	for i := range systems {
		if serial[i] == "" {
			t.Errorf("%s: empty attribution CSV", systems[i])
		}
		if serial[i] != parallel[i] {
			t.Errorf("%s: attribution CSV differs between 1 and %d workers", systems[i], runtime.GOMAXPROCS(0))
		}
	}
}

// TestRunManyProgress: the progress callback fires once per
// configuration with monotonic Done counts.
func TestRunManyProgress(t *testing.T) {
	const n = 3
	var calls []Progress
	_, err := Sweep(n, func(i int) SimConfig {
		return obsTestConfig(int64(31 + i))
	}, ParallelOptions{
		Workers:    runtime.GOMAXPROCS(0),
		OnProgress: func(p Progress) { calls = append(calls, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("progress calls = %d, want %d", len(calls), n)
	}
	seen := map[int]bool{}
	for i, p := range calls {
		if p.Done != i+1 || p.Total != n {
			t.Errorf("call %d: done/total = %d/%d", i, p.Done, p.Total)
		}
		if p.Err != nil {
			t.Errorf("call %d: unexpected error %v", i, p.Err)
		}
		if seen[p.Index] {
			t.Errorf("config %d reported twice", p.Index)
		}
		seen[p.Index] = true
	}
}

// TestDeriveAuditBounds covers the default bound derivation and its
// guard rails.
func TestDeriveAuditBounds(t *testing.T) {
	cfg := obsTestConfig(1)
	cfg.Obs.Audit = true
	if _, err := Run(cfg); err != nil {
		t.Fatalf("derived-bounds run failed: %v", err)
	}

	// mu >= rho cannot produce finite burst bounds: Run must fail with a
	// pointer at the explicit override.
	bad := obsTestConfig(1)
	bad.Traffic[0].BurstLoad = 0
	bad.Obs.Audit = true
	_, err := Run(bad)
	if err == nil || !strings.Contains(err.Error(), "AuditBoundsUS") {
		t.Fatalf("err = %v, want guidance to set Obs.AuditBoundsUS", err)
	}
}

// TestAuditWithoutAttribution: the tracer feeds the auditor by itself, so
// a run with only Audit on reports its audit and builds no attributor
// (no per-RPC records, no attribution table).
func TestAuditWithoutAttribution(t *testing.T) {
	cfg := obsTestConfig(1)
	cfg.Obs.Audit = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit == nil || res.Attribution != nil {
		t.Fatalf("Audit %p, Attribution %v: want an audit and no attribution", res.Audit, res.Attribution)
	}
}
