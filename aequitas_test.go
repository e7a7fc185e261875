package aequitas

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aequitas/internal/scenario"
)

// TestRunValidation is the table of configurations Run must refuse
// with an aequitas: error before building anything. Each would otherwise
// fail inside the run, panic, hang, or run with a meaningless setting.
func TestRunValidation(t *testing.T) {
	probe := []Probe{{Src: 0, Dst: 1, Class: High}}
	cases := []struct {
		name string
		edit func(*SimConfig)
	}{
		{"empty config", func(c *SimConfig) { *c = SimConfig{} }},
		{"one host", func(c *SimConfig) { c.Hosts = 1 }},
		{"warmup past duration", func(c *SimConfig) { c.Warmup = 2 * time.Millisecond }},
		{"no traffic", func(c *SimConfig) { c.Traffic = nil }},
		{"aequitas without SLOs", func(c *SimConfig) { c.System = SystemAequitas }},
		{"System(-1)", func(c *SimConfig) { c.System = -1 }},
		{"System(9)", func(c *SimConfig) { c.System = 9 }},
		{"first System past the table", func(c *SimConfig) { c.System = System(len(scenario.Systems)) }},
		{"probe src below range", func(c *SimConfig) { c.Probes = []Probe{{Src: -1, Dst: 1}} }},
		{"probe src above range", func(c *SimConfig) { c.Probes = []Probe{{Src: 3, Dst: 1}} }},
		{"probe dst below range", func(c *SimConfig) { c.Probes = []Probe{{Src: 0, Dst: -1}} }},
		{"probe dst above range", func(c *SimConfig) { c.Probes = []Probe{{Src: 0, Dst: 3}} }},
		{"negative priority", func(c *SimConfig) { c.Traffic[0].Classes[0].Priority = -1 }},
		{"negative warmup", func(c *SimConfig) { c.Warmup = -time.Microsecond }},
		{"negative burst period", func(c *SimConfig) {
			c.BurstPeriod = -time.Microsecond
			c.Traffic[0].BurstLoad = 1.4
		}},
		{"negative sample interval", func(c *SimConfig) { c.SampleEvery, c.Probes = -time.Microsecond, probe }},
		{"negative propagation delay", func(c *SimConfig) { c.PropDelay = -time.Nanosecond }},
		{"negative RTO floor", func(c *SimConfig) { c.RTOMin = -time.Microsecond }},
		{"only destination is the sender", func(c *SimConfig) { c.Traffic[0].Dsts = []int{2} }},
		{"sender listed twice in Dsts", func(c *SimConfig) { c.Traffic[0].Dsts = []int{1, 2, 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SimConfig{Hosts: 3, Duration: time.Millisecond, Traffic: minimalTraffic()}
			tc.edit(&cfg)
			err := cfg.applyDefaults()
			if err == nil || !strings.HasPrefix(err.Error(), "aequitas: ") {
				t.Errorf("applyDefaults = %v, want an aequitas: error", err)
			}
		})
	}
}

func TestSystemStrings(t *testing.T) {
	if got := Systems(); len(got) != len(scenario.Systems) {
		t.Fatalf("Systems() has %d entries, the table %d", len(got), len(scenario.Systems))
	}
	// -system resolves the first row with a matching name, so a repeated
	// or empty one would leave a system unreachable.
	seen := map[string]bool{}
	for i, row := range scenario.Systems {
		if row.Name == "" || seen[row.Name] {
			t.Errorf("row %d: name %q is empty or repeated", i, row.Name)
		}
		seen[row.Name] = true
	}
	for i, row := range scenario.Systems {
		if got := Systems()[i]; got != System(i) || got.String() != row.Name {
			t.Errorf("Systems()[%d] = %v (%q), want System(%d) %q", i, int(got), got, i, row.Name)
		}
	}
	for _, s := range []System{-1, System(len(scenario.Systems)), 99} {
		if got, want := s.String(), fmt.Sprintf("System(%d)", int(s)); got != want {
			t.Errorf("out-of-range String() = %q, want %q", got, want)
		}
	}
}
