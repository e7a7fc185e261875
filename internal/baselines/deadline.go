package baselines

import (
	"cmp"
	"slices"

	"aequitas/internal/netsim"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
)

const kindDeadlineDone uint8 = 10

// DeadlinePolicy selects the allocation discipline.
type DeadlinePolicy int

const (
	// PolicyD3 is D3's greedy first-come-first-served allocation: each
	// deadline flow asks for remaining/(deadline−now); requests are
	// granted in arrival order; leftover capacity is split equally.
	PolicyD3 DeadlinePolicy = iota
	// PolicyPDQ is PDQ's preemptive earliest-deadline-first: the
	// earliest-deadline flow gets as much as it can use, then the next.
	PolicyPDQ
)

// DeadlineConfig parameterises a deadline fabric.
type DeadlineConfig struct {
	Policy DeadlinePolicy
	// LineRate bounds each link's allocation (default 100 Gbps).
	LineRate sim.Rate
}

// reallocateEvery is the allocation refresh interval, standing in for
// per-RTT rate-request headers.
const reallocateEvery = 10 * sim.Microsecond

func (c *DeadlineConfig) applyDefaults() {
	if c.LineRate == 0 {
		c.LineRate = 100 * sim.Gbps
	}
}

// DeadlineFabric models D3/PDQ's in-network rate allocation explicitly:
// one allocator per host uplink and per host downlink; a flow's rate is
// the minimum of its two links' grants. This substitutes for wire-format
// rate-request headers (the paper's simulator models those; behaviourally
// the observable outcomes — who meets deadlines, early termination, and
// the resulting network utilisation — are what Figure 22 measures).
type DeadlineFabric struct {
	cfg   DeadlineConfig
	hosts int
	flows map[uint64]*dlFlow
	next  uint64
	// senders[i] is host i's DeadlineSender, for receive dispatch.
	senders []*DeadlineSender
	// Terminated counts flows abandoned because their deadline became
	// infeasible ("better never than late").
	Terminated int64
	started    bool
}

// NewDeadlineFabric creates the shared allocator for a topology of the
// given host count.
func NewDeadlineFabric(hosts int, cfg DeadlineConfig) *DeadlineFabric {
	cfg.applyDefaults()
	return &DeadlineFabric{
		cfg:     cfg,
		hosts:   hosts,
		flows:   make(map[uint64]*dlFlow),
		senders: make([]*DeadlineSender, hosts),
	}
}

type dlFlow struct {
	id        uint64
	src, dst  int
	m         *transport.Message
	remaining int64
	deadline  sim.Time // 0 = none: the flow only ever receives leftover capacity
	arrival   sim.Time
	rate      sim.Rate
	sending   bool
	acked     bool
}

// DeadlineSender is one host's D3/PDQ transport.
type DeadlineSender struct {
	fabric *DeadlineFabric
	host   *netsim.Host
	// received tracks inbound per-message byte counts.
	received map[homaInKey]int64
}

// NewDeadlineSender attaches a sender for host to the shared fabric.
func NewDeadlineSender(f *DeadlineFabric, host *netsim.Host) *DeadlineSender {
	ds := &DeadlineSender{fabric: f, host: host, received: make(map[homaInKey]int64)}
	host.SetReceiver(ds)
	f.senders[host.ID] = ds
	return ds
}

// Send implements rpc.Sender.
func (ds *DeadlineSender) Send(s *sim.Simulator, m *transport.Message) {
	m.SubmitTime = s.Now()
	f := ds.fabric
	f.next++
	fl := &dlFlow{
		id: f.next, src: ds.host.ID, dst: m.Dst, m: m,
		remaining: m.Bytes, deadline: m.Deadline, arrival: s.Now(),
	}
	f.flows[fl.id] = fl
	f.reallocate(s)
	if !f.started {
		f.started = true
		f.tick(s)
	}
	ds.pump(s, fl)
}

// tick refreshes allocations periodically while flows exist.
func (f *DeadlineFabric) tick(s *sim.Simulator) {
	if len(f.flows) == 0 {
		f.started = false
		return
	}
	f.kickAll(s)
	s.AfterFunc(reallocateEvery, func(s *sim.Simulator) { f.tick(s) })
}

// kickAll reallocates and restarts any flow that regained a rate. It runs
// on the periodic tick and on every flow completion, so freed capacity is
// reassigned immediately (PDQ senders react within an RTT; waiting for
// the next tick would idle the link after each short flow).
func (f *DeadlineFabric) kickAll(s *sim.Simulator) {
	f.reallocate(s)
	// Restart in flow-id order, not map order: pump schedules simulator
	// events, and same-timestamp events fire in scheduling order, so map
	// iteration here would make whole runs nondeterministic.
	pending := make([]*dlFlow, 0, len(f.flows))
	for _, fl := range f.flows {
		if fl.rate > 0 && !fl.sending {
			pending = append(pending, fl)
		}
	}
	slices.SortFunc(pending, func(a, b *dlFlow) int { return cmp.Compare(a.id, b.id) })
	for _, fl := range pending {
		f.senders[fl.src].pump(s, fl)
	}
}

// reallocate recomputes flow rates with a single global pass in policy
// order against per-link residual capacities. Granting a flow on both of
// its links atomically avoids the pathological mismatch where a flow wins
// its uplink but is shut out of its downlink (the real protocols converge
// to consistent per-path rates via iterative hop-by-hop headers; the
// atomic grant reproduces that fixed point directly). Infeasible deadline
// flows are terminated first.
func (f *DeadlineFabric) reallocate(s *sim.Simulator) {
	now := s.Now()
	// Terminate hopeless deadline flows: even at full line rate the
	// remaining bytes cannot arrive in time.
	for id, fl := range f.flows {
		if fl.deadline == 0 {
			continue
		}
		left := fl.deadline - now
		if left <= 0 || f.cfg.LineRate.TxTime(int(fl.remaining)) > left {
			fl.rate = 0
			delete(f.flows, id)
			f.Terminated++
		}
	}

	ordered := make([]*dlFlow, 0, len(f.flows))
	for _, fl := range f.flows {
		ordered = append(ordered, fl)
	}
	if f.cfg.Policy == PolicyPDQ {
		// EDF, deadline-less flows last.
		slices.SortFunc(ordered, func(a, b *dlFlow) int {
			ad, bd := a.deadline, b.deadline
			if ad == 0 {
				ad = sim.MaxTime
			}
			if bd == 0 {
				bd = sim.MaxTime
			}
			return cmp.Or(cmp.Compare(ad, bd), cmp.Compare(a.id, b.id))
		})
	} else {
		// D3: first come, first served.
		slices.SortFunc(ordered, func(a, b *dlFlow) int {
			return cmp.Or(cmp.Compare(a.arrival, b.arrival), cmp.Compare(a.id, b.id))
		})
	}

	capacity := float64(f.cfg.LineRate)
	upRes := make([]float64, f.hosts)
	downRes := make([]float64, f.hosts)
	for h := 0; h < f.hosts; h++ {
		upRes[h], downRes[h] = capacity, capacity
	}
	grant := make(map[uint64]float64, len(ordered))

	// Pass 1: grant desired rates in policy order.
	for _, fl := range ordered {
		avail := minf(upRes[fl.src], downRes[fl.dst])
		if avail <= 0 {
			continue
		}
		var want float64
		switch {
		case f.cfg.Policy == PolicyPDQ:
			// Preemptive: the most urgent flow takes all it can use.
			want = avail
		case fl.deadline > 0:
			left := (fl.deadline - now).Seconds()
			if left <= 0 {
				continue
			}
			want = minf(float64(fl.remaining)*8/left, avail)
		default:
			continue // deadline-less flows share leftovers in pass 2
		}
		grant[fl.id] = want
		upRes[fl.src] -= want
		downRes[fl.dst] -= want
	}

	// Pass 2: split each downlink's leftover equally among its flows,
	// bounded by uplink residuals.
	byDown := make([][]*dlFlow, f.hosts)
	for _, fl := range ordered {
		byDown[fl.dst] = append(byDown[fl.dst], fl)
	}
	for h := 0; h < f.hosts; h++ {
		flows := byDown[h]
		if len(flows) == 0 || downRes[h] <= 0 {
			continue
		}
		share := downRes[h] / float64(len(flows))
		for _, fl := range flows {
			g := minf(share, upRes[fl.src])
			if g <= 0 {
				continue
			}
			grant[fl.id] += g
			upRes[fl.src] -= g
			downRes[h] -= g
		}
	}

	for _, fl := range ordered {
		fl.rate = sim.Rate(grant[fl.id])
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// pump emits packets for fl paced at its allocated rate.
func (ds *DeadlineSender) pump(s *sim.Simulator, fl *dlFlow) {
	if fl.sending {
		return
	}
	f := ds.fabric
	if _, live := f.flows[fl.id]; !live || fl.rate <= 0 || fl.remaining <= 0 {
		return
	}
	fl.sending = true
	payload := min64(int64(netsim.MaxPayload), fl.remaining)
	p := &netsim.Packet{
		Dst:      fl.dst,
		Class:    fl.m.Class,
		Size:     int(payload) + netsim.HeaderBytes,
		MsgID:    fl.id,
		Seq:      fl.m.Bytes - fl.remaining,
		Payload:  int(payload),
		SentAt:   s.Now(),
		Urg:      fl.remaining,
		AckSeq:   fl.m.Bytes,
		Deadline: fl.deadline,
	}
	fl.remaining -= payload
	ds.host.Send(s, p)
	gap := fl.rate.TxTime(p.Size)
	s.AfterFunc(gap, func(s *sim.Simulator) {
		fl.sending = false
		if fl.remaining > 0 {
			ds.pump(s, fl)
		}
	})
}

// HandlePacket implements netsim.Handler.
func (ds *DeadlineSender) HandlePacket(s *sim.Simulator, p *netsim.Packet) {
	if p.Kind == kindDeadlineDone {
		ds.onDone(s, p)
		return
	}
	k := homaInKey{p.Src, p.MsgID}
	ds.received[k] += int64(p.Payload)
	if ds.received[k] >= p.AckSeq { // AckSeq carries the total size
		delete(ds.received, k)
		ds.host.Send(s, &netsim.Packet{
			Dst:   p.Src,
			Class: p.Class,
			Size:  netsim.AckBytes,
			Kind:  kindDeadlineDone,
			MsgID: p.MsgID,
		})
	}
}

func (ds *DeadlineSender) onDone(s *sim.Simulator, p *netsim.Packet) {
	f := ds.fabric
	fl, ok := f.flows[p.MsgID]
	if !ok || fl.acked {
		return
	}
	fl.acked = true
	delete(f.flows, p.MsgID)
	if fl.m.OnComplete != nil {
		fl.m.OnComplete(s, fl.m)
	}
	f.kickAll(s)
}
