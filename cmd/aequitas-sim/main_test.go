package main

import (
	"strings"
	"testing"

	"aequitas"
)

// TestSummaryIsOneText: the summary of one Results is the same bytes every
// time it is rendered. The per-priority SLO lines were printed by ranging
// over a map, so two runs of one seed could differ in line order. The
// attribution, audit and degradation tables name classes by the class's
// own String, as the latency table does.
func TestSummaryIsOneText(t *testing.T) {
	res := &aequitas.Results{
		RNLRun: map[aequitas.Class]aequitas.LatencySummary{
			aequitas.High:   {P50US: 8.7, P99US: 21, P999US: 30.4, MaxUS: 41},
			aequitas.Medium: {P50US: 12, P99US: 44, P999US: 61, MaxUS: 80},
			aequitas.Low:    {P50US: 90, P99US: 900, P999US: 1900, MaxUS: 2500},
		},
		SLOMetRunBytesFraction: map[aequitas.Class]float64{aequitas.High: 0.995, aequitas.Medium: 0.97},
		SLOMetBytesFraction:    map[aequitas.Priority]float64{aequitas.BE: 1, aequitas.NC: 0.81, aequitas.PC: 0.32},
		Issued:                 1000, Completed: 990, Downgraded: 400,
		InputMix:        []float64{0.5, 0.3, 0.2},
		AdmittedMix:     []float64{0.16, 0.19, 0.65},
		GoodputFraction: 0.97,
		Attribution: map[aequitas.Class]aequitas.Attribution{
			aequitas.High: {Class: aequitas.High, N: 7, AdmitUS: 0.5, WireUS: 2, RNLUS: 9.5},
		},
		Audit: &aequitas.AuditReport{
			SlackUS:         10,
			Classes:         []aequitas.AuditClass{{Class: aequitas.High, N: 7, BoundUS: 12, Bounded: true, Violations: 1}},
			Violations:      []aequitas.AuditViolation{{RPC: 3, Class: aequitas.High, Link: "down-1", TimeUS: 5, ObservedUS: 30, BoundUS: 12}},
			TotalViolations: 1,
		},
		Faults: []aequitas.FaultRecord{{TimeS: 0.001, Event: "link-up", Target: "down-1"}},
	}
	var first strings.Builder
	writeSummary(&first, res, true)
	for _, want := range []string{
		"PC traffic meeting its original SLO: 32.0%\nNC traffic meeting its original SLO: 81.0%\nBE traffic meeting its original SLO: 100.0%\n",
		"\nQoSh          7     0.50     0.00       0.00     0.00     0.00     0.00     2.00     9.50\n",
		"\nQoSh          7       12.0        0.0        0.0        0.0        0.0          1\n",
		"  violation: rpc=3 class=QoSh hop@down-1 t=5.0us observed=30.0us bound=12.0us\n",
		"  t=   1.000ms link-up  down-1\n",
	} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, first.String())
		}
	}
	for i := 1; i < 20; i++ {
		var again strings.Builder
		if writeSummary(&again, res, true); again.String() != first.String() {
			t.Fatalf("rendering %d differs from the first:\n%s\nfirst:\n%s", i+1, again.String(), first.String())
		}
	}
}
