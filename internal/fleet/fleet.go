// Package fleet is a synthetic model of a production fleet, standing in
// for the paper's unobtainable production data (Figures 4, 5 and 24).
// It models the mechanisms the paper describes rather than any particular
// dataset:
//
//   - Applications mark QoS at application granularity (coarse marking),
//     so an application's entire traffic — PC, NC and BE RPCs alike —
//     flows on one class, producing the priority/QoS misalignment of
//     Figure 4.
//
//   - Each overload-induced SLO miss pressures an application to upgrade
//     its marking ("race to the top", Figure 5).
//
//   - Phase 1 of Aequitas re-marks traffic at RPC granularity, driving
//     misalignment to ~zero (Figure 24). The tail-latency change the
//     paper measured alongside needs production latencies, which the
//     model does not have.
package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"aequitas/internal/qos"
)

// App is one application in a cluster: a byte share and its true RPC
// priority composition.
type App struct {
	// Share of the cluster's traffic bytes.
	Share float64
	// PriorityMix is the application's true per-RPC composition: the
	// byte fraction of PC, NC and BE work inside the application.
	PriorityMix [3]float64
	// MarkedClass is the single QoS class the whole application is
	// marked with under coarse (application-granularity) marking.
	MarkedClass qos.Class
}

// Cluster is a population of applications.
type Cluster struct {
	Apps []App
	rng  *rand.Rand
}

// ClusterConfig controls synthesis.
type ClusterConfig struct {
	Apps int
	Seed int64
	// UpgradeBias is the probability that an application's coarse mark
	// equals the *highest* priority present in its mix rather than the
	// dominant one — the "race to the top" pressure already applied.
	UpgradeBias float64
}

// NewCluster synthesises a cluster: application shares follow a Zipf-like
// law (a few large applications dominate), and each application's true
// mix leans toward one dominant priority with minority components.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Apps <= 0 {
		return nil, fmt.Errorf("fleet: need at least one app")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Cluster{rng: rng}
	var tot float64
	shares := make([]float64, cfg.Apps)
	for i := range shares {
		shares[i] = 1 / math.Pow(float64(i+1), 1.1)
		tot += shares[i]
	}
	for i := 0; i < cfg.Apps; i++ {
		dominant := qos.Priority(rng.Intn(3))
		mix := [3]float64{0.1, 0.1, 0.1}
		mix[dominant] = 0.8
		// Normalise.
		s := mix[0] + mix[1] + mix[2]
		for j := range mix {
			mix[j] /= s
		}
		app := App{Share: shares[i] / tot, PriorityMix: mix}
		// Coarse marking: either the dominant priority's class, or — with
		// UpgradeBias — the highest priority present.
		if rng.Float64() < cfg.UpgradeBias {
			app.MarkedClass = qos.High
		} else {
			app.MarkedClass = qos.MapPriorityToQoS(dominant)
		}
		c.Apps = append(c.Apps, app)
	}
	return c, nil
}

// Alignment is the joint distribution of (true priority, marked class) in
// bytes: Alignment[p][c] is the byte fraction of priority-p traffic
// flowing on class c.
type Alignment [3][3]float64

// CoarseAlignment computes the alignment under application-granularity
// marking.
func (c *Cluster) CoarseAlignment() Alignment {
	var a Alignment
	for _, app := range c.Apps {
		for p := 0; p < 3; p++ {
			a[p][app.MarkedClass] += app.Share * app.PriorityMix[p]
		}
	}
	return a.normalize()
}

// Phase1Alignment computes the alignment after Aequitas Phase 1: each RPC
// is marked at RPC granularity with its true priority's class.
func (c *Cluster) Phase1Alignment() Alignment {
	var a Alignment
	for _, app := range c.Apps {
		for p := 0; p < 3; p++ {
			a[p][qos.MapPriorityToQoS(qos.Priority(p))] += app.Share * app.PriorityMix[p]
		}
	}
	return a.normalize()
}

// normalize makes each priority row sum to 1.
func (a Alignment) normalize() Alignment {
	for p := 0; p < 3; p++ {
		var s float64
		for c := 0; c < 3; c++ {
			s += a[p][c]
		}
		if s > 0 {
			for c := 0; c < 3; c++ {
				a[p][c] /= s
			}
		}
	}
	return a
}

// Misalignment returns the byte fraction of priority p's traffic flowing
// on the wrong class (Figure 24's metric).
func (a Alignment) Misalignment(p qos.Priority) float64 {
	right := qos.MapPriorityToQoS(p)
	var wrong float64
	for c := 0; c < 3; c++ {
		if qos.Class(c) != right {
			wrong += a[p][c]
		}
	}
	return wrong
}

// TotalMisalignment is the byte-share-weighted misalignment across
// priorities.
func (a Alignment) TotalMisalignment(shares [3]float64) float64 {
	var tot, s float64
	for p := 0; p < 3; p++ {
		tot += shares[p] * a.Misalignment(qos.Priority(p))
		s += shares[p]
	}
	if s == 0 {
		return 0
	}
	return tot / s
}

// PriorityShares returns the fleet's byte share per true priority.
func (c *Cluster) PriorityShares() [3]float64 {
	var out [3]float64
	for _, app := range c.Apps {
		for p := 0; p < 3; p++ {
			out[p] += app.Share * app.PriorityMix[p]
		}
	}
	return out
}

// QoSShares returns the byte share per marked class under coarse marking.
func (c *Cluster) QoSShares() [3]float64 {
	var out [3]float64
	for _, app := range c.Apps {
		out[app.MarkedClass] += app.Share
	}
	return out
}

// RaceToTheTop simulates the marking drift of Figure 5: at each step, an
// application that would suffer an overload-induced SLO miss upgrades its
// marking one class with probability upgradeProb. It returns the QoS
// share trajectory (one [3]float64 per step, including the initial
// state).
func (c *Cluster) RaceToTheTop(steps int, overloadProb, upgradeProb float64) [][3]float64 {
	out := make([][3]float64, 0, steps+1)
	out = append(out, c.QoSShares())
	for i := 0; i < steps; i++ {
		for j := range c.Apps {
			app := &c.Apps[j]
			if app.MarkedClass == qos.High {
				continue
			}
			// Overload events hit lower classes harder.
			classRisk := 1.0
			if app.MarkedClass == qos.Medium {
				classRisk = 0.6
			}
			if c.rng.Float64() < overloadProb*classRisk && c.rng.Float64() < upgradeProb {
				app.MarkedClass--
			}
		}
		out = append(out, c.QoSShares())
	}
	return out
}
