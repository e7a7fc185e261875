package scenario

import (
	"aequitas/internal/baselines"
	"aequitas/internal/core"
	"aequitas/internal/netsim"
	"aequitas/internal/transport"
	"aequitas/internal/wfq"
)

// The nine evaluated systems. Names match the public System.String()
// values in the root package and the -system CLI vocabulary.
func init() {
	Register("baseline", wfqSystem{})
	Register("aequitas", aequitasSystem{})
	Register("spq", spqSystem{})
	Register("dwrr", dwrrSystem{})
	Register("pfabric", pfabricSystem{})
	Register("qjump", qjumpSystem{})
	Register("d3", deadlineSystem{policy: baselines.PolicyD3})
	Register("pdq", deadlineSystem{policy: baselines.PolicyPDQ})
	Register("homa", homaSystem{})
}

// statelessInstance adapts a per-host build function for systems with no
// cross-host state.
type statelessInstance func(env *Env, i int) (HostStack, error)

func (f statelessInstance) Host(env *Env, i int) (HostStack, error) { return f(env, i) }
func (statelessInstance) Terminated() int64                         { return 0 }

// swiftHost is the shared host shape of the WFQ-family systems: standard
// transport, no admission control.
func swiftHost(env *Env, i int) (HostStack, error) {
	return HostStack{Sender: env.SwiftEndpoint(i)}, nil
}

// wfqSystem is plain WFQ QoS without admission control ("w/o Aequitas").
type wfqSystem struct{}

func (wfqSystem) Scheduler(weights []float64, buf int) netsim.SchedulerFactory {
	return func() wfq.Scheduler { return wfq.NewWFQ(weights, buf) }
}

func (wfqSystem) Build(*Env) (Instance, error) {
	return statelessInstance(swiftHost), nil
}

// aequitasSystem is WFQ QoS plus the distributed admission controller:
// every host runs its own Algorithm 1 state.
type aequitasSystem struct{}

func (aequitasSystem) Scheduler(weights []float64, buf int) netsim.SchedulerFactory {
	return func() wfq.Scheduler { return wfq.NewWFQ(weights, buf) }
}

func (aequitasSystem) Build(*Env) (Instance, error) {
	return statelessInstance(func(env *Env, i int) (HostStack, error) {
		ctl, err := core.NewWithClock(env.Core, env.Clock)
		if err != nil {
			return HostStack{}, err
		}
		return HostStack{Sender: env.SwiftEndpoint(i), Controller: ctl}, nil
	}), nil
}

// spqSystem replaces WFQ with strict priority queuing (§6.7).
type spqSystem struct{}

func (spqSystem) Scheduler(weights []float64, buf int) netsim.SchedulerFactory {
	return func() wfq.Scheduler { return wfq.NewSPQ(len(weights), buf) }
}

func (spqSystem) Build(*Env) (Instance, error) {
	return statelessInstance(swiftHost), nil
}

// dwrrSystem realises the QoS weights with deficit weighted round robin.
type dwrrSystem struct{}

func (dwrrSystem) Scheduler(weights []float64, buf int) netsim.SchedulerFactory {
	return func() wfq.Scheduler { return wfq.NewDWRR(weights, netsim.MTU, buf) }
}

func (dwrrSystem) Build(*Env) (Instance, error) {
	return statelessInstance(swiftHost), nil
}

// pfabricSystem transmits aggressively and relies on the fabric's SRPT
// queues plus retransmission; a single urgency-ordered queue per port
// with capacity shared across classes, as in pFabric's shallow-buffer
// model.
type pfabricSystem struct{}

func (pfabricSystem) Scheduler(weights []float64, buf int) netsim.SchedulerFactory {
	total := buf * len(weights)
	return func() wfq.Scheduler { return wfq.NewPriorityQueue(total) }
}

func (pfabricSystem) Build(*Env) (Instance, error) {
	return statelessInstance(func(env *Env, i int) (HostStack, error) {
		ep := env.NewEndpoint(i, transport.Config{
			NewCC: func() transport.CC { return transport.Fixed{W: 128} },
		})
		return HostStack{Sender: ep}, nil
	}), nil
}

// qjumpSystem rate-limits each QoS level at the host and runs strict
// priority in the fabric.
type qjumpSystem struct{}

func (qjumpSystem) Scheduler(weights []float64, buf int) netsim.SchedulerFactory {
	return func() wfq.Scheduler { return wfq.NewSPQ(len(weights), buf) }
}

func (qjumpSystem) Build(*Env) (Instance, error) {
	return statelessInstance(func(env *Env, i int) (HostStack, error) {
		ep := env.NewEndpoint(i, transport.Config{
			NewCC: func() transport.CC { return transport.Fixed{W: 128} },
		})
		return HostStack{Sender: baselines.NewQJump(ep, baselines.QJumpConfig{
			LevelRates: baselines.QJumpRates(env.Levels, env.LineRate, env.Hosts),
		})}, nil
	}), nil
}

// deadlineSystem covers D3 and PDQ: a shared fabric allocates per-flow
// rates against deadlines and terminates hopeless RPCs.
type deadlineSystem struct {
	policy baselines.DeadlinePolicy
}

func (deadlineSystem) Scheduler(weights []float64, buf int) netsim.SchedulerFactory {
	total := buf * len(weights)
	return func() wfq.Scheduler { return wfq.NewFIFO(total) }
}

func (d deadlineSystem) Build(env *Env) (Instance, error) {
	return &deadlineInstance{fabric: baselines.NewDeadlineFabric(env.Hosts, baselines.DeadlineConfig{
		Policy:   d.policy,
		LineRate: env.LineRate,
	})}, nil
}

type deadlineInstance struct {
	fabric *baselines.DeadlineFabric
}

func (di *deadlineInstance) Host(env *Env, i int) (HostStack, error) {
	return HostStack{Sender: baselines.NewDeadlineSender(di.fabric, env.Net.Host(i))}, nil
}

func (di *deadlineInstance) Terminated() int64 { return di.fabric.Terminated }

// homaSystem is receiver-driven: grants pace senders, packets carry SRPT
// priorities, and the fabric runs urgency-ordered queues.
type homaSystem struct{}

func (homaSystem) Scheduler(weights []float64, buf int) netsim.SchedulerFactory {
	total := buf * len(weights)
	return func() wfq.Scheduler { return wfq.NewPriorityQueue(total) }
}

func (homaSystem) Build(*Env) (Instance, error) {
	return statelessInstance(func(env *Env, i int) (HostStack, error) {
		return HostStack{Sender: baselines.NewHoma(env.Net.Host(i), baselines.HomaConfig{
			LineRate: env.LineRate,
		})}, nil
	}), nil
}
