package figures

import (
	"fmt"
	"io"
	"math/rand"

	"aequitas"
	"aequitas/internal/stats"
	"aequitas/internal/workload"
)

// figSizes prints the Figure 1 CDFs from the synthetic production-shaped
// distributions, each sampled with its own seeded RNG.
func figSizes(w io.Writer, _ Options, _ []*aequitas.Results) error {
	dists := []struct {
		name string
		d    workload.SizeDist
	}{
		{"PC", workload.ProductionPC()},
		{"NC", workload.ProductionNC()},
		{"BE", workload.ProductionBE()},
	}
	tb := stats.NewTable("priority", "p10", "p50", "p90", "p99", "mean")
	for i, d := range dists {
		rng := rand.New(rand.NewSource(int64(1 + i)))
		s := &stats.Sample{}
		for n := 0; n < 100000; n++ {
			s.Add(float64(d.d.Sample(rng)))
		}
		tb.AddRow(d.name,
			fmt.Sprintf("%.0fB", s.Quantile(0.10)),
			fmt.Sprintf("%.0fB", s.Quantile(0.50)),
			fmt.Sprintf("%.0fKB", s.Quantile(0.90)/1024),
			fmt.Sprintf("%.0fKB", s.Quantile(0.99)/1024),
			fmt.Sprintf("%.0fKB", s.Mean()/1024))
	}
	tb.Write(w)
	return nil
}

// figTheory2QoS prints the Figure 8 closed-form delay curves.
func figTheory2QoS(w io.Writer, _ Options, _ []*aequitas.Results) error {
	const (
		phi = 4.0
		rho = 1.2
		mu  = 0.8
	)
	tb := stats.NewTable("QoSh-share(%)", "QoSh-bound", "QoSl-bound")
	for x := 0.05; x < 1.0; x += 0.05 {
		tb.AddRow(fmt.Sprintf("%.0f", 100*x),
			aequitas.DelayBoundHigh(phi, rho, mu, x),
			aequitas.DelayBoundLow(phi, rho, mu, x))
	}
	tb.Write(w)
	fmt.Fprintf(w, "priority inversion at QoSh-share = %.0f%% (phi/(phi+1))\n", 100*phi/(phi+1))
	return nil
}

// figTheory3QoS prints the Figure 9 fluid sweeps: QoSm:QoSl fixed at 2:1.
func figTheory3QoS(w io.Writer, _ Options, _ []*aequitas.Results) error {
	const (
		rho = 1.4
		mu  = 0.8
	)
	for _, weights := range [][]float64{{8, 4, 1}, {50, 4, 1}} {
		fmt.Fprintf(w, "weights %v:\n", weights)
		tb := stats.NewTable("QoSh-share(%)", "QoSh", "QoSm", "QoSl", "admissible")
		for x := 0.05; x < 0.95; x += 0.05 {
			rest := 1 - x
			mix := []float64{x, rest * 2 / 3, rest / 3}
			d, err := aequitas.WorstCaseDelays(weights, mix, rho, mu)
			if err != nil {
				return err
			}
			adm := d[0] <= d[1]+1e-9 && d[1] <= d[2]+1e-9
			tb.AddRow(fmt.Sprintf("%.0f", 100*x), d[0], d[1], d[2], adm)
		}
		tb.Write(w)
		boundary, err := aequitas.AdmissibleShare(weights, []float64{2.0 / 3, 1.0 / 3}, rho, mu)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "admissible region boundary: QoSh-share %.0f%%\n\n", 100*boundary)
	}
	return nil
}

// figGuarantee prints the §5.2 bound X_i <= r*(phi_i/sum)*(mu/rho).
func figGuarantee(w io.Writer, _ Options, _ []*aequitas.Results) error {
	weights := []float64{8, 4, 1}
	tb := stats.NewTable("rho", "QoSh(%)", "QoSm(%)", "QoSl(%)")
	for _, rho := range []float64{1.4, 1.6, 1.8, 2.0, 2.2} {
		tb.AddRow(rho,
			100*aequitas.GuaranteedShare(weights, 0, 0.8, rho),
			100*aequitas.GuaranteedShare(weights, 1, 0.8, rho),
			100*aequitas.GuaranteedShare(weights, 2, 0.8, rho))
	}
	tb.Write(w)
	fmt.Fprintln(w, "guaranteed admitted share scales as 1/rho (cf. figure 16)")
	return nil
}
