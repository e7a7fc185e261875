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
	cfg DeadlineConfig
	// order holds the live flows, always in policy order (before): Send
	// inserts, a done-ack deletes, reallocate drops hopeless flows.
	order []*dlFlow
	// links is reallocate's per-host residual capacity, reused.
	links []dlLink
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
		links:   make([]dlLink, hosts),
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
	grant     float64 // reallocate's running grant, truncated into rate
	rate      sim.Rate
	sending   bool
}

// dlLink is one host's residual uplink and downlink capacity during a
// reallocate, and the number of live flows into its downlink.
type dlLink struct {
	up, down float64
	flows    int
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
	f := ds.fabric
	f.next++
	fl := &dlFlow{
		id: f.next, src: ds.host.ID, dst: m.Dst, m: m,
		remaining: m.Bytes, deadline: m.Deadline, arrival: s.Now(),
	}
	i, _ := slices.BinarySearchFunc(f.order, fl, f.before)
	f.order = slices.Insert(f.order, i, fl)
	f.reallocate(s)
	if !f.started {
		f.started = true
		f.tick(s)
	}
	ds.pump(s, fl)
}

// before is the policy order reallocate grants in. PDQ is earliest
// deadline first with deadline-less flows last; D3 is arrival order. The
// flow id breaks ties.
func (f *DeadlineFabric) before(a, b *dlFlow) int {
	ka, kb := a.arrival, b.arrival
	if f.cfg.Policy == PolicyPDQ {
		ka, kb = a.deadline, b.deadline
		if ka == 0 {
			ka = sim.MaxTime
		}
		if kb == 0 {
			kb = sim.MaxTime
		}
	}
	return cmp.Or(cmp.Compare(ka, kb), cmp.Compare(a.id, b.id))
}

// tick refreshes allocations periodically while flows exist.
func (f *DeadlineFabric) tick(s *sim.Simulator) {
	if len(f.order) == 0 {
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
	// Restart in flow-id order, not policy order: pump schedules simulator
	// events, and same-timestamp events fire in scheduling order, so this
	// order decides every later event of the run.
	var pending []*dlFlow
	for _, fl := range f.order {
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
// flows are terminated on the way.
func (f *DeadlineFabric) reallocate(s *sim.Simulator) {
	now := s.Now()
	capacity := float64(f.cfg.LineRate)
	for h := range f.links {
		f.links[h] = dlLink{up: capacity, down: capacity}
	}

	// Pass 1, in policy order: drop hopeless deadline flows, whose
	// remaining bytes cannot arrive in time even at full line rate, and
	// grant the others their desired rates.
	live := f.order[:0]
	for _, fl := range f.order {
		if fl.deadline != 0 {
			if left := fl.deadline - now; left <= 0 || f.cfg.LineRate.TxTime(int(fl.remaining)) > left {
				fl.rate = 0
				f.Terminated++
				continue
			}
		}
		live = append(live, fl)
		src, dst := &f.links[fl.src], &f.links[fl.dst]
		dst.flows++
		fl.grant = 0
		avail := min(src.up, dst.down)
		if avail <= 0 {
			continue
		}
		switch {
		case f.cfg.Policy == PolicyPDQ:
			// Preemptive: the most urgent flow takes all it can use.
			fl.grant = avail
		case fl.deadline > 0:
			left := (fl.deadline - now).Seconds()
			fl.grant = min(float64(fl.remaining)*8/left, avail)
		default:
			continue // deadline-less flows share leftovers in pass 2
		}
		src.up -= fl.grant
		dst.down -= fl.grant
	}
	clear(f.order[len(live):])
	f.order = live

	// Pass 2: split each downlink's leftover equally among its flows, in
	// policy order, bounded by uplink residuals.
	for h, l := range f.links {
		if l.flows == 0 || l.down <= 0 {
			continue
		}
		share := l.down / float64(l.flows)
		for _, fl := range f.order {
			if fl.dst != h {
				continue
			}
			up := &f.links[fl.src].up
			if g := min(share, *up); g > 0 {
				fl.grant += g
				*up -= g
			}
		}
	}

	for _, fl := range f.order {
		fl.rate = sim.Rate(fl.grant)
	}
}

// pump emits packets for fl paced at its allocated rate.
func (ds *DeadlineSender) pump(s *sim.Simulator, fl *dlFlow) {
	// A terminated flow has rate 0; an acknowledged one has no bytes left.
	if fl.sending || fl.rate <= 0 || fl.remaining <= 0 {
		return
	}
	fl.sending = true
	payload := min(int64(netsim.MaxPayload), fl.remaining)
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
	i := slices.IndexFunc(f.order, func(fl *dlFlow) bool { return fl.id == p.MsgID })
	if i < 0 {
		return // terminated before its ack arrived
	}
	m := f.order[i].m
	f.order = slices.Delete(f.order, i, i+1)
	if m.OnComplete != nil {
		m.OnComplete(s, m)
	}
	f.kickAll(s)
}
