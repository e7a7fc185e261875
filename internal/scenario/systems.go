package scenario

import (
	"aequitas/internal/baselines"
	"aequitas/internal/core"
	"aequitas/internal/netsim"
	"aequitas/internal/transport"
	"aequitas/internal/wfq"
)

// System is one evaluated system: its name, the switch scheduler it
// deploys on every port, and how it wires one host.
type System struct {
	// Name is the public System.String() value in the root package and
	// the -system CLI vocabulary.
	Name string
	// Sched returns the per-port scheduler factory for the run's QoS
	// weights and per-class buffer bound.
	Sched func(weights []float64, perClassBufferBytes int) netsim.SchedulerFactory
	// Host builds host i's sender and admission controller.
	Host func(env *Env, i int) (HostStack, error)
}

// Systems is the eight evaluated systems, in the order of the root
// package's System enum, which indexes it.
var Systems = [...]System{
	{"baseline", wfqSched, swiftHost}, // WFQ QoS without admission control
	{"aequitas", wfqSched, aequitasHost},
	{"spq", spqSched, swiftHost}, // strict priority in place of WFQ (§6.7)
	{"pfabric", srptSched, pfabricHost},
	{"qjump", spqSched, qjumpHost},
	{"d3", fifoSched, deadlineHost(baselines.PolicyD3)},
	{"pdq", fifoSched, deadlineHost(baselines.PolicyPDQ)},
	{"homa", srptSched, homaHost},
}

func wfqSched(weights []float64, buf int) netsim.SchedulerFactory {
	return func() wfq.Scheduler { return wfq.NewWFQ(weights, buf) }
}

func spqSched(weights []float64, buf int) netsim.SchedulerFactory {
	return func() wfq.Scheduler { return wfq.NewSPQ(len(weights), buf) }
}

// srptSched is pFabric's and Homa's fabric: one urgency-ordered queue per
// port, its capacity shared across classes as in pFabric's shallow-buffer
// model.
func srptSched(weights []float64, buf int) netsim.SchedulerFactory {
	total := buf * len(weights)
	return func() wfq.Scheduler { return wfq.NewPriorityQueue(total) }
}

// fifoSched is the D3/PDQ fabric: rates are allocated at the hosts, so
// each port is one shared FIFO.
func fifoSched(weights []float64, buf int) netsim.SchedulerFactory {
	total := buf * len(weights)
	return func() wfq.Scheduler { return wfq.NewFIFO(total) }
}

// swiftHost is the standard transport with no admission control.
func swiftHost(env *Env, i int) (HostStack, error) {
	return HostStack{Sender: env.SwiftEndpoint(i)}, nil
}

// aequitasHost adds the host's own Algorithm 1 state to swiftHost.
func aequitasHost(env *Env, i int) (HostStack, error) {
	ctl, err := core.NewWithClock(env.Core, env.Clock)
	if err != nil {
		return HostStack{}, err
	}
	return HostStack{Sender: env.SwiftEndpoint(i), Controller: ctl}, nil
}

// fixedWindowEndpoint transmits aggressively, a fixed 128-packet window,
// and leaves the rest to the fabric and retransmission.
func fixedWindowEndpoint(env *Env, i int) *transport.Endpoint {
	return env.NewEndpoint(i, transport.Config{
		NewCC: func() transport.CC { return transport.Fixed{W: 128} },
	})
}

func pfabricHost(env *Env, i int) (HostStack, error) {
	return HostStack{Sender: fixedWindowEndpoint(env, i)}, nil
}

// qjumpHost rate-limits each QoS level at the host.
func qjumpHost(env *Env, i int) (HostStack, error) {
	return HostStack{Sender: baselines.NewQJump(fixedWindowEndpoint(env, i), baselines.QJumpConfig{
		LevelRates: baselines.QJumpRates(env.Levels, env.LineRate, env.Hosts),
	})}, nil
}

// deadlineHost attaches host i to the run's deadline fabric, which
// allocates per-flow rates against deadlines and terminates hopeless
// RPCs. The first host creates it; NewDeadlineFabric draws nothing and
// schedules nothing, so when it is created does not matter.
func deadlineHost(policy baselines.DeadlinePolicy) func(*Env, int) (HostStack, error) {
	return func(env *Env, i int) (HostStack, error) {
		if env.deadline == nil {
			env.deadline = baselines.NewDeadlineFabric(env.Hosts, baselines.DeadlineConfig{
				Policy:   policy,
				LineRate: env.LineRate,
			})
		}
		return HostStack{Sender: baselines.NewDeadlineSender(env.deadline, env.Net.Host(i))}, nil
	}
}

// homaHost is receiver-driven: grants pace senders and packets carry SRPT
// priorities.
func homaHost(env *Env, i int) (HostStack, error) {
	return HostStack{Sender: baselines.NewHoma(env.Net.Host(i), baselines.HomaConfig{
		LineRate: env.LineRate,
	})}, nil
}
