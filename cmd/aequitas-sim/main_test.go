package main

import (
	"strings"
	"testing"

	"aequitas"
)

// TestSummaryIsOneText: the summary of one Results is the same bytes every
// time it is rendered. The per-priority SLO lines were printed by ranging
// over a map, so two runs of one seed could differ in line order.
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
	}
	var first strings.Builder
	writeSummary(&first, res)
	want := "PC traffic meeting its original SLO: 32.0%\nNC traffic meeting its original SLO: 81.0%\nBE traffic meeting its original SLO: 100.0%\n"
	if !strings.HasSuffix(first.String(), want) {
		t.Fatalf("summary does not end with the SLO lines in priority order:\n%s", first.String())
	}
	for i := 1; i < 20; i++ {
		var again strings.Builder
		if writeSummary(&again, res); again.String() != first.String() {
			t.Fatalf("rendering %d differs from the first:\n%s\nfirst:\n%s", i+1, again.String(), first.String())
		}
	}
}
