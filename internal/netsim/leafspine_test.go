package netsim

import (
	"testing"

	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/wfq"
)

func leafSpineNet(t *testing.T, hosts, leaves, spines int, spineRate sim.Rate) *Network {
	t.Helper()
	net, err := New(Config{
		Hosts:       hosts,
		SwitchSched: func() wfq.Scheduler { return wfq.NewFIFO(0) },
		Topology:    Topology{Leaves: leaves, Spines: spines, SpineLinkRate: spineRate},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestLeafSpineValidation(t *testing.T) {
	cases := []Topology{
		{Leaves: 1, Spines: 1},
		{Leaves: 2, Spines: 0},
		{Leaves: 3, Spines: 1}, // 4 hosts not divisible by 3 leaves
	}
	for i, topo := range cases {
		_, err := New(Config{Hosts: 4, Topology: topo})
		if err == nil {
			t.Errorf("case %d: invalid topology accepted", i)
		}
	}
}

func TestLeafSpineLocalDelivery(t *testing.T) {
	net := leafSpineNet(t, 4, 2, 2, 0)
	s := sim.New(1)
	c := &collector{}
	net.Host(1).SetReceiver(c)
	// Hosts 0 and 1 share leaf 0: two hops only.
	net.Host(0).Send(s, &Packet{Dst: 1, Size: 1500})
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d", len(c.pkts))
	}
	// 2 serialisations + 2 propagations = 2×120ns + 2×500ns.
	if want := 2*120*sim.Nanosecond + 2*500*sim.Nanosecond; c.times[0] != want {
		t.Errorf("local delivery at %v, want %v", c.times[0], want)
	}
	if !net.SameLeaf(0, 1) || net.SameLeaf(0, 2) {
		t.Error("SameLeaf wrong")
	}
}

func TestLeafSpineCrossLeafDelivery(t *testing.T) {
	net := leafSpineNet(t, 4, 2, 2, 0)
	s := sim.New(1)
	c := &collector{}
	net.Host(2).SetReceiver(c)
	net.Host(0).Send(s, &Packet{Dst: 2, Size: 1500})
	s.Run()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d", len(c.pkts))
	}
	// 4 serialisations + 4 propagations.
	if want := 4*120*sim.Nanosecond + 4*500*sim.Nanosecond; c.times[0] != want {
		t.Errorf("cross-leaf delivery at %v, want %v", c.times[0], want)
	}
}

func TestLeafSpineAllPairsDeliver(t *testing.T) {
	net := leafSpineNet(t, 8, 4, 2, 0)
	s := sim.New(1)
	got := map[int]int{}
	for i := 0; i < 8; i++ {
		i := i
		net.Host(i).SetReceiver(HandlerFunc(func(_ *sim.Simulator, p *Packet) { got[i]++ }))
	}
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if src != dst {
				net.Host(src).Send(s, &Packet{Dst: dst, Size: 200})
			}
		}
	}
	s.Run()
	for i := 0; i < 8; i++ {
		if got[i] != 7 {
			t.Errorf("host %d received %d, want 7", i, got[i])
		}
	}
	if dp, _ := net.TotalDropped(s.Now()); dp != 0 {
		t.Errorf("dropped %d packets", dp)
	}
}

func TestLeafSpineFlowOrderPreserved(t *testing.T) {
	// All packets of one (src,dst,class) flow must traverse one spine
	// and arrive in order.
	net := leafSpineNet(t, 4, 2, 4, 0)
	s := sim.New(1)
	var seqs []int64
	net.Host(3).SetReceiver(HandlerFunc(func(_ *sim.Simulator, p *Packet) {
		seqs = append(seqs, p.Seq)
	}))
	for i := 0; i < 200; i++ {
		net.Host(0).Send(s, &Packet{Dst: 3, Size: 1500, Seq: int64(i)})
	}
	s.Run()
	if len(seqs) != 200 {
		t.Fatalf("delivered %d", len(seqs))
	}
	for i, q := range seqs {
		if q != int64(i) {
			t.Fatalf("reordered at %d: seq %d", i, q)
		}
	}
}

func TestLeafSpineECMPSpreadsFlows(t *testing.T) {
	// Many flows between leaves should spread across spines.
	net := leafSpineNet(t, 8, 2, 4, 0)
	s := sim.New(1)
	for dst := 4; dst < 8; dst++ {
		net.Host(dst - 4).SetReceiver(HandlerFunc(func(*sim.Simulator, *Packet) {}))
		net.Host(dst).SetReceiver(HandlerFunc(func(*sim.Simulator, *Packet) {}))
	}
	for src := 0; src < 4; src++ {
		for dst := 4; dst < 8; dst++ {
			for c := 0; c < 3; c++ {
				net.Host(src).Send(s, &Packet{Dst: dst, Size: 1500, Class: qos.Class(c)})
			}
		}
	}
	s.Run()
	used := 0
	for _, l := range net.CoreLinks() {
		if l.Stats(s.Now()).TxPackets > 0 {
			used++
		}
	}
	if used < 4 {
		t.Errorf("only %d core links carried traffic; ECMP not spreading", used)
	}
}

func TestLeafSpineCoreCongestion(t *testing.T) {
	// 4 hosts per leaf at full rate toward the other leaf, but only one
	// spine at host-link rate: the fabric core is 4:1 oversubscribed and
	// must be the bottleneck.
	net := leafSpineNet(t, 8, 2, 1, 0)
	s := sim.New(1)
	delivered := 0
	for dst := 4; dst < 8; dst++ {
		net.Host(dst).SetReceiver(HandlerFunc(func(*sim.Simulator, *Packet) { delivered++ }))
	}
	const per = 200
	for src := 0; src < 4; src++ {
		for i := 0; i < per; i++ {
			net.Host(src).Send(s, &Packet{Dst: 4 + src, Size: 1500})
		}
	}
	s.Run()
	if delivered != 4*per {
		t.Fatalf("delivered %d of %d", delivered, 4*per)
	}
	// The single leaf0→spine0 link must serialise all 800 packets:
	// ≥ 800 × 120 ns, whereas the star would finish in ~200 × 120 ns.
	if minTime := sim.Duration(4*per) * 120 * sim.Nanosecond; s.Now() < minTime {
		t.Errorf("finished at %v; core bottleneck not enforced (min %v)", s.Now(), minTime)
	}
	var coreBusy sim.Duration
	for _, l := range net.CoreLinks() {
		coreBusy += l.Stats(s.Now()).BusyTime
	}
	if coreBusy == 0 {
		t.Error("no core link busy time recorded")
	}
}

func TestLeafSpineMinRTT(t *testing.T) {
	net := leafSpineNet(t, 4, 2, 2, 0)
	star, err := New(Config{Hosts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if net.MinRTT(1500) <= star.MinRTT(1500) {
		t.Error("leaf-spine MinRTT should exceed star MinRTT")
	}
}
