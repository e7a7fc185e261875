package core

import (
	"testing"

	"aequitas/internal/obs/flight"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// benchController builds a wall-clock controller with a spread of warm
// (dst, class) channels, mirroring a serving process at steady state.
func benchController(b *testing.B) *Controller {
	b.Helper()
	ct := MustNew(Defaults3(2*sim.Microsecond, 4*sim.Microsecond))
	for dst := 0; dst < 64; dst++ {
		ct.Observe(dst, qos.High, sim.Microsecond, 1)
	}
	return ct
}

// BenchmarkAdmitDecision measures the serial admit fast path: one uniform
// draw, one lock-free state lookup, one atomic probability load.
func BenchmarkAdmitDecision(b *testing.B) {
	ct := benchController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.Admit(i&63, qos.High, 1)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkAdmitDecisionParallel measures the admit fast path under
// GOMAXPROCS-way contention — the live serving configuration.
func BenchmarkAdmitDecisionParallel(b *testing.B) {
	ct := benchController(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ct.Admit(i&63, qos.High, 1)
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkObserve measures the AIMD feedback path (a compare-and-swap
// per change of p_admit, the channel lock once per increment window).
func BenchmarkObserve(b *testing.B) {
	ct := benchController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.Observe(i&63, qos.High, sim.Microsecond, 1)
	}
}

// BenchmarkAdmitDecisionFlight is BenchmarkAdmitDecision with the flight
// recorder attached — the cost of the black box on the hot path.
func BenchmarkAdmitDecisionFlight(b *testing.B) {
	ct := benchController(b)
	ct.SetFlight(flight.NewRing(flight.Config{}), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.Admit(i&63, qos.High, 1)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}
