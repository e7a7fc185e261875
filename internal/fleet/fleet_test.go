package fleet

import (
	"math"
	"testing"

	"aequitas/internal/qos"
)

func newCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Apps: 100, Seed: seed, UpgradeBias: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Apps: 0}); err == nil {
		t.Error("0-app cluster accepted")
	}
}

func TestSharesSumToOne(t *testing.T) {
	c := newCluster(t, 1)
	var tot float64
	for _, a := range c.Apps {
		tot += a.Share
		var mix float64
		for _, m := range a.PriorityMix {
			mix += m
		}
		if math.Abs(mix-1) > 1e-9 {
			t.Fatalf("app priority mix sums to %v", mix)
		}
	}
	if math.Abs(tot-1) > 1e-9 {
		t.Errorf("app shares sum to %v", tot)
	}
	ps := c.PriorityShares()
	if math.Abs(ps[0]+ps[1]+ps[2]-1) > 1e-9 {
		t.Errorf("priority shares sum to %v", ps[0]+ps[1]+ps[2])
	}
	qs := c.QoSShares()
	if math.Abs(qs[0]+qs[1]+qs[2]-1) > 1e-9 {
		t.Errorf("QoS shares sum to %v", qs[0]+qs[1]+qs[2])
	}
}

func TestAlignmentRowsNormalized(t *testing.T) {
	c := newCluster(t, 2)
	for _, a := range []Alignment{c.CoarseAlignment(), c.Phase1Alignment()} {
		for p := 0; p < 3; p++ {
			var s float64
			for cl := 0; cl < 3; cl++ {
				s += a[p][cl]
			}
			if math.Abs(s-1) > 1e-9 {
				t.Errorf("alignment row %d sums to %v", p, s)
			}
		}
	}
}

// The Figure 4 phenomenon: coarse marking misaligns a substantial share
// of traffic; Phase 1 drives misalignment to zero.
func TestCoarseMarkingMisaligns(t *testing.T) {
	c := newCluster(t, 3)
	coarse := c.CoarseAlignment()
	// PC traffic not on QoSh (the paper observed 17.3%).
	pcWrong := coarse.Misalignment(qos.PC)
	if pcWrong <= 0.05 {
		t.Errorf("PC misalignment %v; coarse marking should misplace some PC traffic", pcWrong)
	}
	// BE traffic above QoSl (the paper observed 54.5%).
	beWrong := coarse.Misalignment(qos.BE)
	if beWrong <= 0.1 {
		t.Errorf("BE misalignment %v; upgrade bias should push BE traffic up", beWrong)
	}
	aligned := c.Phase1Alignment()
	for p := 0; p < 3; p++ {
		if m := aligned.Misalignment(qos.Priority(p)); m != 0 {
			t.Errorf("Phase 1 misalignment for priority %d = %v, want 0", p, m)
		}
	}
}

func TestTotalMisalignment(t *testing.T) {
	c := newCluster(t, 4)
	shares := c.PriorityShares()
	tm := c.CoarseAlignment().TotalMisalignment(shares)
	if tm <= 0 || tm >= 1 {
		t.Errorf("total misalignment = %v", tm)
	}
	if got := c.Phase1Alignment().TotalMisalignment(shares); got != 0 {
		t.Errorf("Phase 1 total misalignment = %v", got)
	}
	var zero Alignment
	if got := zero.TotalMisalignment([3]float64{}); got != 0 {
		t.Errorf("degenerate shares: %v", got)
	}
}

// Figure 5: the QoSh share drifts upward over time under upgrade
// pressure.
func TestRaceToTheTopDrift(t *testing.T) {
	c := newCluster(t, 5)
	traj := c.RaceToTheTop(50, 0.3, 0.5)
	if len(traj) != 51 {
		t.Fatalf("trajectory length %d", len(traj))
	}
	first, last := traj[0], traj[len(traj)-1]
	if last[0] <= first[0] {
		t.Errorf("QoSh share did not grow: %v -> %v", first[0], last[0])
	}
	if last[2] >= first[2] {
		t.Errorf("QoSl share did not shrink: %v -> %v", first[2], last[2])
	}
	for _, q := range traj {
		if s := q[0] + q[1] + q[2]; math.Abs(s-1) > 1e-9 {
			t.Fatalf("shares sum to %v mid-trajectory", s)
		}
	}
}
