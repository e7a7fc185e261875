package workload

import (
	"fmt"
	"sort"

	"aequitas/internal/qos"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
)

// Process selects the arrival process for a class stream.
type Process int

const (
	// Poisson arrivals with exponential inter-arrival times.
	Poisson Process = iota
	// Periodic arrivals with deterministic spacing, used for the
	// "issue RPCs at line rate" experiments (§6.2, §6.5).
	Periodic
)

// ClassSpec is one priority class's stream within a Spec.
type ClassSpec struct {
	Priority qos.Priority
	// Share is this class's fraction of the generator's offered bytes
	// (the input QoS-mix entry).
	Share float64
	// Sizes draws RPC payload sizes.
	Sizes SizeDist
	// Deadline, when non-zero, stamps each RPC with an absolute deadline
	// of now+Deadline (used by D3/PDQ baselines).
	Deadline sim.Duration
}

// Spec describes one host's offered traffic.
type Spec struct {
	// Rate is the link rate the loads are normalised against.
	Rate sim.Rate
	// Load is the average offered load µ as a fraction of Rate.
	Load float64
	// Rho, when > Load, enables the Figure 7 burst modulation: traffic
	// arrives at instantaneous load Rho for a fraction Load/Rho of every
	// Period, then pauses.
	Rho float64
	// Period is the burst modulation period (default 100 µs).
	Period sim.Duration
	// Process selects Poisson (default) or Periodic arrivals.
	Process Process
	// Classes split the offered bytes; shares must sum to ~1.
	Classes []ClassSpec
	// Dsts are destination hosts, chosen uniformly per RPC unless
	// DstWeights is set.
	Dsts []int
	// DstWeights, when non-nil, weights the destination choice; it must
	// be parallel to Dsts with a positive sum.
	DstWeights []float64
	// ExcludeSelf removes host Self from the destination draw, letting
	// all-to-all patterns share one destination slice across every
	// sender's generator instead of materialising a per-sender
	// "everyone but me" copy.
	ExcludeSelf bool
	Self        int
	// Shape varies the offered load over simulated time; nil means
	// constant load.
	Shape LoadShape
}

// Validate reports specification errors.
func (sp Spec) Validate() error {
	if sp.Rate <= 0 {
		return fmt.Errorf("workload: rate must be positive")
	}
	if sp.Load <= 0 {
		return fmt.Errorf("workload: load must be positive")
	}
	if sp.Rho != 0 && sp.Rho < sp.Load {
		return fmt.Errorf("workload: burst load ρ=%v below average load µ=%v", sp.Rho, sp.Load)
	}
	if len(sp.Classes) == 0 {
		return fmt.Errorf("workload: no classes")
	}
	var tot float64
	for i, c := range sp.Classes {
		if c.Share < 0 {
			return fmt.Errorf("workload: class %d negative share", i)
		}
		if c.Sizes == nil {
			return fmt.Errorf("workload: class %d has no size distribution", i)
		}
		tot += c.Share
	}
	if tot < 0.999 || tot > 1.001 {
		return fmt.Errorf("workload: class shares sum to %v", tot)
	}
	if len(sp.Dsts) == 0 {
		return fmt.Errorf("workload: no destinations")
	}
	if sp.DstWeights != nil {
		if len(sp.DstWeights) != len(sp.Dsts) {
			return fmt.Errorf("workload: %d destination weights for %d destinations", len(sp.DstWeights), len(sp.Dsts))
		}
		var sum float64
		for i, w := range sp.DstWeights {
			if w < 0 {
				return fmt.Errorf("workload: destination %d negative weight", i)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("workload: destination weights sum to %v", sum)
		}
	}
	if sp.ExcludeSelf {
		n := len(sp.Dsts)
		for _, d := range sp.Dsts {
			if d == sp.Self {
				n--
			}
		}
		if n == 0 {
			return fmt.Errorf("workload: destinations reduce to none after excluding self (%d)", sp.Self)
		}
	}
	return nil
}

// Generator drives one host's RPC stack with the traffic described by a
// Spec. Create with NewGenerator, then Start.
type Generator struct {
	spec  Spec
	stack *rpc.Stack

	// selfIdx is Self's position in Dsts (-1 when absent or not
	// excluded); uniform draws skip it by index shifting, which keeps
	// the random sequence identical to sampling a materialised
	// "everyone but me" slice.
	selfIdx int
	// cumWeights is the cumulative weight table for weighted draws, with
	// the excluded self's weight already zeroed.
	cumWeights []float64

	running bool
	stopped bool
	// Offered counts bytes offered per class (input mix accounting).
	Offered *qos.MixCounter

	// events holds one reusable arrival event per class. Each class's
	// stream has at most one scheduled continuation at a time (the chain is
	// sequential), so re-arming the same node keeps the arrival process
	// allocation-free.
	events []genEvent
}

// genEvent is the per-class arrival-stream continuation: issue an RPC when
// the scheduled point is a real arrival (fire), then draw the next one.
// Burst- and shape-clipping wakeups re-arm it with fire unset.
type genEvent struct {
	g        *Generator
	classIdx int
	fire     bool
}

func (e *genEvent) Run(s *sim.Simulator) {
	if e.g.stopped {
		return
	}
	if e.fire {
		e.g.issue(s, e.classIdx)
	}
	e.g.scheduleNext(s, e.classIdx)
}

// NewGenerator validates the spec and builds a generator.
func NewGenerator(stack *rpc.Stack, spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Period == 0 {
		spec.Period = 100 * sim.Microsecond
	}
	levels := 0
	for _, c := range spec.Classes {
		if l := int(qos.MapPriorityToQoS(c.Priority)) + 1; l > levels {
			levels = l
		}
	}
	g := &Generator{
		spec:    spec,
		stack:   stack,
		selfIdx: -1,
		Offered: qos.NewMixCounter(levels),
	}
	if spec.ExcludeSelf {
		for i, d := range spec.Dsts {
			if d == spec.Self {
				g.selfIdx = i
				break
			}
		}
	}
	if spec.DstWeights != nil {
		g.cumWeights = make([]float64, len(spec.DstWeights))
		var sum float64
		for i, w := range spec.DstWeights {
			if i == g.selfIdx {
				w = 0
			}
			sum += w
			g.cumWeights[i] = sum
		}
		if sum <= 0 {
			return nil, fmt.Errorf("workload: destination weights sum to 0 after excluding self (%d)", spec.Self)
		}
	}
	return g, nil
}

// Start begins issuing RPCs; one independent arrival stream per class.
func (g *Generator) Start(s *sim.Simulator) {
	if g.running {
		return
	}
	g.running = true
	g.events = make([]genEvent, len(g.spec.Classes))
	for i := range g.events {
		g.events[i] = genEvent{g: g, classIdx: i}
	}
	for i := range g.spec.Classes {
		g.scheduleNext(s, i)
	}
}

// Stop halts the generator after any already-scheduled arrivals.
func (g *Generator) Stop() { g.stopped = true }

// byteRate returns the class's average offered bytes/second.
func (g *Generator) byteRate(classIdx int) float64 {
	c := g.spec.Classes[classIdx]
	return c.Share * g.spec.Load * float64(g.spec.Rate) / 8
}

// interArrival returns the mean spacing between this class's RPCs during
// active (burst) phases.
func (g *Generator) interArrival(classIdx int) sim.Duration {
	c := g.spec.Classes[classIdx]
	rate := g.byteRate(classIdx) // bytes/sec average
	if g.spec.Rho > g.spec.Load {
		// During the burst the instantaneous rate is scaled by ρ/µ.
		rate *= g.spec.Rho / g.spec.Load
	}
	mean := c.Sizes.Mean()
	if rate <= 0 || mean <= 0 {
		return sim.MaxTime
	}
	return sim.FromSeconds(mean / rate)
}

// burstWindow reports whether t falls in the burst phase and, if not, the
// start of the next burst.
func (g *Generator) burstWindow(t sim.Time) (active bool, nextBurst sim.Time) {
	if g.spec.Rho <= g.spec.Load {
		return true, 0
	}
	period := g.spec.Period
	offset := t % period
	burstLen := sim.Duration(float64(period) * g.spec.Load / g.spec.Rho)
	if offset < burstLen {
		return true, 0
	}
	return false, t - offset + period
}

func (g *Generator) scheduleNext(s *sim.Simulator, classIdx int) {
	if g.stopped {
		return
	}
	mean := g.interArrival(classIdx)
	if mean == sim.MaxTime {
		return
	}
	if g.spec.Shape != nil {
		f, until := g.spec.Shape.FactorAt(s.Now())
		if f <= 0 {
			// Load is off: resume the stream when the shape next changes.
			if until <= s.Now() || until == sim.MaxTime {
				return
			}
			g.rearm(s, classIdx, until, false)
			return
		}
		if f != 1 {
			mean = sim.Duration(float64(mean) / f)
		}
	}
	var gap sim.Duration
	if g.spec.Process == Poisson {
		gap = sim.Duration(s.Rand().ExpFloat64() * float64(mean))
	} else {
		gap = mean
	}
	next := s.Now() + gap
	// Clip to burst phases: if the arrival lands outside, restart the
	// draw at the next burst (memorylessness makes this exact for
	// Poisson; for Periodic it preserves the per-burst count).
	if active, nextBurst := g.burstWindow(next); !active {
		g.rearm(s, classIdx, nextBurst, false)
		return
	}
	// Same clipping for shape off-phases: an arrival drawn in an on-phase
	// that lands after the shape switches off restarts when load resumes.
	if g.spec.Shape != nil {
		if f, until := g.spec.Shape.FactorAt(next); f <= 0 {
			if until <= next || until == sim.MaxTime {
				return
			}
			g.rearm(s, classIdx, until, false)
			return
		}
	}
	g.rearm(s, classIdx, next, true)
}

// rearm schedules the class's reusable continuation event at t.
func (g *Generator) rearm(s *sim.Simulator, classIdx int, t sim.Time, fire bool) {
	e := &g.events[classIdx]
	e.fire = fire
	s.At(t, e)
}

func (g *Generator) issue(s *sim.Simulator, classIdx int) {
	c := g.spec.Classes[classIdx]
	dst := g.drawDst(s)
	size := c.Sizes.Sample(s.Rand())
	if size <= 0 {
		size = 1
	}
	r := g.stack.NewRPC()
	r.Dst, r.Priority, r.Bytes = dst, c.Priority, size
	if c.Deadline > 0 {
		r.Deadline = s.Now() + c.Deadline
	}
	g.Offered.Add(qos.MapPriorityToQoS(c.Priority), size)
	g.stack.Issue(s, r)
}

// drawDst picks the next destination: weighted when DstWeights is set,
// otherwise uniform over Dsts minus the excluded self. The uniform
// self-excluding draw shifts indexes past selfIdx, which consumes the
// same Intn(len-1) draw — and maps it to the same host — as the former
// per-sender "everyone but me" slice, preserving sequences byte for
// byte.
func (g *Generator) drawDst(s *sim.Simulator) int {
	if g.cumWeights != nil {
		total := g.cumWeights[len(g.cumWeights)-1]
		x := s.Rand().Float64() * total
		i := sort.SearchFloat64s(g.cumWeights, x)
		// SearchFloat64s finds the first cumulative ≥ x; an exact hit on a
		// boundary belongs to the next bucket.
		for i < len(g.cumWeights)-1 && g.cumWeights[i] <= x {
			i++
		}
		return g.spec.Dsts[i]
	}
	if g.selfIdx >= 0 {
		i := s.Rand().Intn(len(g.spec.Dsts) - 1)
		if i >= g.selfIdx {
			i++
		}
		return g.spec.Dsts[i]
	}
	return g.spec.Dsts[s.Rand().Intn(len(g.spec.Dsts))]
}
