package netsim

import (
	"slices"
	"testing"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/wfq"
)

func fifoFactory() wfq.Scheduler { return wfq.NewFIFO(0) }

type collector struct {
	pkts  []*Packet
	times []sim.Time
}

func (c *collector) HandlePacket(s *sim.Simulator, p *Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, s.Now())
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	s := sim.New(1)
	c := &collector{}
	// 100 Gbps, 500 ns propagation: a 1500 B packet arrives at
	// 120 ns (serialisation) + 500 ns (propagation) = 620 ns.
	l := NewLink("l", 100*sim.Gbps, 500*sim.Nanosecond, wfq.NewFIFO(0), c)
	l.Send(s, &Packet{Size: 1500})
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(c.pkts))
	}
	if want := 620 * sim.Nanosecond; c.times[0] != want {
		t.Errorf("arrival at %v, want %v", c.times[0], want)
	}
}

func TestLinkPipelining(t *testing.T) {
	s := sim.New(1)
	c := &collector{}
	l := NewLink("l", 100*sim.Gbps, 500*sim.Nanosecond, wfq.NewFIFO(0), c)
	// Two packets sent back to back: second arrival exactly one
	// serialisation time after the first (propagation overlaps).
	l.Send(s, &Packet{Size: 1500, ID: 1})
	l.Send(s, &Packet{Size: 1500, ID: 2})
	s.Run()
	if len(c.pkts) != 2 {
		t.Fatalf("delivered %d packets", len(c.pkts))
	}
	if got := c.times[1] - c.times[0]; got != 120*sim.Nanosecond {
		t.Errorf("inter-arrival %v, want 120ns", got)
	}
}

func TestLinkBackToBackThroughput(t *testing.T) {
	s := sim.New(1)
	c := &collector{}
	l := NewLink("l", 100*sim.Gbps, 0, wfq.NewFIFO(0), c)
	const n = 1000
	for i := 0; i < n; i++ {
		l.Send(s, &Packet{Size: 1500})
	}
	s.Run()
	// n×1500 B at 100 Gbps = n×120 ns.
	if want := sim.Duration(n) * 120 * sim.Nanosecond; s.Now() != want {
		t.Errorf("drain time %v, want %v", s.Now(), want)
	}
	if got := float64(l.Stats(s.Now()).BusyTime) / float64(s.Now()); got < 0.999 || got > 1.001 {
		t.Errorf("utilization %v, want 1.0", got)
	}
}

func TestLinkDropsAndOnDrop(t *testing.T) {
	s := sim.New(1)
	c := &collector{}
	l := NewLink("l", 100*sim.Gbps, 0, wfq.NewFIFO(3000), c)
	var dropped []*Packet
	l.OnDrop = func(_ *sim.Simulator, p *Packet) { dropped = append(dropped, p) }
	// The first packet starts transmitting immediately (leaves the
	// queue), so 2 more fit in the 3000 B buffer; the rest drop.
	for i := 0; i < 10; i++ {
		l.Send(s, &Packet{Size: 1500, ID: uint64(i + 1)})
	}
	if l.Stats(s.Now()).DropPackets != 7 {
		t.Errorf("drops = %d, want 7", l.Stats(s.Now()).DropPackets)
	}
	if len(dropped) != 7 {
		t.Errorf("OnDrop fired %d times", len(dropped))
	}
	s.Run()
	if len(c.pkts) != 3 {
		t.Errorf("delivered %d, want 3", len(c.pkts))
	}
	// Conservation: delivered + dropped = sent.
	if int64(len(c.pkts))+l.Stats(s.Now()).DropPackets != 10 {
		t.Error("packet conservation violated")
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := New(Config{Hosts: 1}); err == nil {
		t.Error("1-host network accepted")
	}
}

func TestNetworkRouting(t *testing.T) {
	net, err := New(Config{Hosts: 4, SwitchSched: fifoFactory})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	received := make(map[int][]*Packet)
	for i := 0; i < 4; i++ {
		i := i
		net.Host(i).SetReceiver(HandlerFunc(func(_ *sim.Simulator, p *Packet) {
			received[i] = append(received[i], p)
		}))
	}
	// Host 0 sends one packet to each other host.
	for d := 1; d < 4; d++ {
		net.Host(0).Send(s, &Packet{Dst: d, Size: 1500})
	}
	s.Run()
	for d := 1; d < 4; d++ {
		if len(received[d]) != 1 {
			t.Errorf("host %d received %d packets", d, len(received[d]))
		}
		if len(received[d]) > 0 && received[d][0].Src != 0 {
			t.Errorf("host %d got Src=%d", d, received[d][0].Src)
		}
	}
	if len(received[0]) != 0 {
		t.Errorf("host 0 received %d stray packets", len(received[0]))
	}
}

func TestManyToOneCongestion(t *testing.T) {
	// Two senders at line rate into one receiver: the downlink is the
	// bottleneck, and total delivery time is the sum of both loads.
	net, err := New(Config{Hosts: 3, SwitchSched: fifoFactory})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	c := &collector{}
	net.Host(2).SetReceiver(c)
	const n = 100
	for i := 0; i < n; i++ {
		net.Host(0).Send(s, &Packet{Dst: 2, Size: 1500})
		net.Host(1).Send(s, &Packet{Dst: 2, Size: 1500})
	}
	s.Run()
	if len(c.pkts) != 2*n {
		t.Fatalf("delivered %d, want %d", len(c.pkts), 2*n)
	}
	// Downlink serialises 2n packets: ≥ 2n×120ns.
	if minTime := sim.Duration(2*n) * 120 * sim.Nanosecond; s.Now() < minTime {
		t.Errorf("finished at %v, faster than bottleneck allows (%v)", s.Now(), minTime)
	}
	dp, _ := net.TotalDelivered(s.Now())
	if dp != 2*n {
		t.Errorf("TotalDelivered packets = %d", dp)
	}
}

// TestTwoNetworksOneSimulator runs two fabrics on one simulator, as a test
// of an adaptive application does. Their links have the same ids, which
// rank them in the kernel and must not name them there: every packet has
// to reach the right host of its own network, once.
func TestTwoNetworksOneSimulator(t *testing.T) {
	s := sim.New(1)
	const hosts, n = 3, 20
	got := make([][hosts]int, 2)
	var nets []*Network
	for k, prop := range []sim.Duration{500 * sim.Nanosecond, 700 * sim.Nanosecond} {
		net, err := New(Config{Hosts: hosts, PropDelay: prop, SwitchSched: fifoFactory})
		if err != nil {
			t.Fatal(err)
		}
		for h := 0; h < hosts; h++ {
			net.Host(h).SetReceiver(HandlerFunc(func(_ *sim.Simulator, p *Packet) {
				if p.Dst != h || p.MsgID != uint64(k) {
					t.Errorf("network %d host %d got a packet for network %d host %d", k, h, p.MsgID, p.Dst)
				}
				got[k][h]++
			}))
		}
		nets = append(nets, net)
	}
	for i := 0; i < n; i++ {
		for k, net := range nets {
			for h := 0; h < hosts; h++ {
				net.Host(h).Send(s, &Packet{Dst: (h + 1 + i%2) % hosts, MsgID: uint64(k), Size: 1000 + 100*k})
			}
		}
	}
	s.RunUntil(sim.Millisecond)
	for k := range nets {
		for h, c := range got[k] {
			if c != n {
				t.Errorf("network %d host %d received %d packets, want %d", k, h, c, n)
			}
		}
	}
}

func TestWFQDownlinkShares(t *testing.T) {
	// Saturate a downlink with two QoS classes from two senders; the WFQ
	// port must deliver ~4:1 byte shares while both are backlogged.
	net, err := New(Config{
		Hosts:       3,
		SwitchSched: func() wfq.Scheduler { return wfq.NewWFQ([]float64{4, 1}, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	var hi, lo int
	net.Host(2).SetReceiver(HandlerFunc(func(_ *sim.Simulator, p *Packet) {
		if p.Class == qos.High {
			hi++
		} else {
			lo++
		}
	}))
	const n = 2000
	for i := 0; i < n; i++ {
		net.Host(0).Send(s, &Packet{Dst: 2, Size: 1500, Class: qos.High})
		net.Host(1).Send(s, &Packet{Dst: 2, Size: 1500, Class: qos.Low})
	}
	// Run only while both classes remain backlogged (half the total
	// drain time), then check the ratio so far.
	s.RunUntil(sim.Duration(n) * 120 * sim.Nanosecond)
	ratio := float64(hi) / float64(hi+lo)
	if ratio < 0.76 || ratio > 0.84 {
		t.Errorf("high-class share %v, want ~0.8", ratio)
	}
}

func TestMinRTT(t *testing.T) {
	net, err := New(Config{Hosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 2×(1500B tx) + 2×(64B tx) + 4×500ns = 240 + 10.24 + 2000 ns.
	want := 2*(100*sim.Gbps).TxTime(1500) + 2*(100*sim.Gbps).TxTime(64) + 4*500*sim.Nanosecond
	if got := net.MinRTT(1500); got != want {
		t.Errorf("MinRTT = %v, want %v", got, want)
	}
}

func TestMTUsFor(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int64
	}{
		{0, 1}, {1, 1}, {int64(MaxPayload), 1}, {int64(MaxPayload) + 1, 2},
		{32 * 1024, (32*1024 + int64(MaxPayload) - 1) / int64(MaxPayload)},
	}
	for _, c := range cases {
		if got := MTUsFor(c.bytes); got != c.want {
			t.Errorf("MTUsFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{ID: 7, Src: 1, Dst: 2, Class: qos.High, MsgID: 3, Seq: 0, Size: 1500}
	if got := p.String(); got == "" {
		t.Error("empty String()")
	}
	a := &Packet{Ack: true}
	if got := a.String(); got == "" {
		t.Error("empty ack String()")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() sim.Time {
		net, _ := New(Config{Hosts: 4})
		s := sim.New(99)
		for i := 0; i < 500; i++ {
			src := s.Rand().Intn(4)
			dst := (src + 1 + s.Rand().Intn(3)) % 4
			net.Host(src).Send(s, &Packet{Dst: dst, Size: 64 + s.Rand().Intn(1400), Class: qos.Class(s.Rand().Intn(3))})
		}
		s.Run()
		return s.Now()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

// TestMetricsSamplerSteadyState: the sampler's names are the three per
// link in ForEachLink order, and from the second tick on it emits the same
// strings and allocates nothing (it built them all again every tick).
func TestMetricsSamplerSteadyState(t *testing.T) {
	star, err := New(Config{Hosts: 4, SwitchSched: fifoFactory})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*Network{star, leafSpineNet(t, 8, 2, 2, 200*sim.Gbps)} {
		var want []string
		net.ForEachLink(func(l *Link) {
			want = append(want, "q."+l.Name+".bytes", "q."+l.Name+".pkts", "drop."+l.Name+".pkts")
		})
		sample := net.MetricsSampler()
		var first []string
		sample(0, func(name string, _ float64) { first = append(first, name) })
		if !slices.Equal(first, want) {
			t.Fatalf("first tick emitted %v, want %v", first, want)
		}
		i := 0
		check := func(name string, _ float64) {
			if name != first[i%len(first)] {
				t.Errorf("emission %d is %q, the first tick's was %q", i, name, first[i%len(first)])
			}
			i++
		}
		if allocs := testing.AllocsPerRun(10, func() { sample(0, check) }); allocs != 0 || i != 11*len(first) {
			t.Errorf("%v allocations per tick after the first, %d emissions; want 0, %d", allocs, i, 11*len(first))
		}
	}
}
