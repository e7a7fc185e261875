package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the tables in
// spec.go and checks both against the benchmark contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -print-spec`; regenerate it")
	}
	var spec struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(onDisk))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(onDisk))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a legal name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range spec.Workloads {
		use("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	var haveSetup bool
	for _, m := range spec.EndToEnd {
		use("end-to-end metric", m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not a legal unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			haveSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range spec.PerLayer {
		n, _ := m["name"].(string)
		u, _ := m["unit"].(string)
		use("per-layer metric", n)
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q is not a legal unit", n, u)
		}
		if len(m) != 3 {
			t.Errorf("%s: per-layer metrics have exactly name, unit and better", n)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// TestSmokeEveryWorkload runs every workload untraced and traced at 2 %
// scale and checks each emits exactly the benchmark's metric names. It
// asserts nothing about speed: checks that depend on an idle host (the
// open-loop generator's pacing error) are logged, not failed, because
// `go test ./...` runs other packages' tests on the same two CPUs.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts aequitas-serve")
	}
	buildRoot = t.TempDir()
	bin, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killChildren)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			p := params{seed: 1, seconds: runSeconds, scale: 0.02, trace: trace, serveBin: bin, workDir: buildRoot}
			r, err := runWorkload(w, p, io.Discard)
			if err != nil {
				t.Fatalf("trace=%v: %v", trace, err)
			}
			for _, problem := range r.problems {
				t.Errorf("%s trace=%v incorrect: %s", w, trace, problem)
			}
			for _, note := range r.hostNoise {
				t.Logf("%s trace=%v (host noise, not failed here): %s", w, trace, note)
			}
			specs := specsFor(trace)
			if len(r.metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(r.metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := r.metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, m.Name, v)
				}
			}
			if r.attempted < 1 || r.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", w, trace, r.attempted, r.failed)
			}
		}
	}
}
