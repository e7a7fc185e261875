package figures

import (
	"fmt"
	"io"

	"aequitas"
	"aequitas/internal/fleet"
	"aequitas/internal/qos"
	"aequitas/internal/stats"
)

func figMisalignment(w io.Writer, o Options, _ []*aequitas.Results) error {
	c, err := fleet.NewCluster(fleet.ClusterConfig{Apps: 200, Seed: o.Seed, UpgradeBias: 0.35})
	if err != nil {
		return err
	}
	a := c.CoarseAlignment()
	tb := stats.NewTable("priority", "on QoSh(%)", "on QoSm(%)", "on QoSl(%)", "misaligned(%)")
	for p := 0; p < 3; p++ {
		pr := qos.Priority(p)
		tb.AddRow(pr.String(), 100*a[p][0], 100*a[p][1], 100*a[p][2], 100*a.Misalignment(pr))
	}
	tb.Write(w)
	fmt.Fprintln(w, "(paper: 17.3% of PC traffic off QoSh; 54.5% of BE traffic above QoSl)")
	return nil
}

func figRaceToTop(w io.Writer, o Options, _ []*aequitas.Results) error {
	c, err := fleet.NewCluster(fleet.ClusterConfig{Apps: 200, Seed: o.Seed, UpgradeBias: 0.1})
	if err != nil {
		return err
	}
	traj := c.RaceToTheTop(20, 0.25, 0.4)
	tb := stats.NewTable("step", "QoSh(%)", "QoSm(%)", "QoSl(%)")
	for i := 0; i < len(traj); i += 2 {
		tb.AddRow(i, 100*traj[i][0], 100*traj[i][1], 100*traj[i][2])
	}
	tb.Write(w)
	fmt.Fprintln(w, "overload-driven upgrades steadily shift traffic into higher classes")
	return nil
}

func figProduction(w io.Writer, o Options, _ []*aequitas.Results) error {
	// Fifty clusters, as the paper samples.
	const clusters = 50
	var beforeMis, afterMis stats.Sample
	for i := 0; i < clusters; i++ {
		c, err := fleet.NewCluster(fleet.ClusterConfig{Apps: 80, Seed: o.Seed*1000 + int64(i), UpgradeBias: 0.35})
		if err != nil {
			return err
		}
		shares := c.PriorityShares()
		beforeMis.Add(100 * c.CoarseAlignment().TotalMisalignment(shares))
		afterMis.Add(100 * c.Phase1Alignment().TotalMisalignment(shares))
	}
	tb := stats.NewTable("metric", "before", "after Phase 1")
	tb.AddRow("mean total misalignment (%)", beforeMis.Mean(), afterMis.Mean())
	tb.AddRow("max total misalignment (%)", beforeMis.Max(), afterMis.Max())
	tb.Write(w)
	fmt.Fprintln(w, "(paper: misalignment from up to 80% to ~0; up to 53% RNL reduction, ~10% mean)")
	return nil
}
