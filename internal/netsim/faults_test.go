package netsim

import (
	"math/rand"
	"testing"

	"aequitas/internal/sim"
	"aequitas/internal/wfq"
)

func TestLinkDownBlackholesAndResumes(t *testing.T) {
	s := sim.New(1)
	c := &collector{}
	l := NewLink("l", 100*sim.Gbps, 0, wfq.NewFIFO(0), c)

	// Queue two packets, then fail the link before either fully drains:
	// the one mid-serialisation finishes, the queued one freezes.
	l.Send(s, &Packet{Size: 1500, ID: 1})
	l.Send(s, &Packet{Size: 1500, ID: 2})
	s.AtFunc(60*sim.Nanosecond, func(s *sim.Simulator) { l.SetDown(s, true) })
	// Packets arriving while down vanish without OnDrop.
	var congDrops int
	l.OnDrop = func(*sim.Simulator, *Packet) { congDrops++ }
	s.AtFunc(200*sim.Nanosecond, func(s *sim.Simulator) {
		l.Send(s, &Packet{Size: 1500, ID: 3})
	})
	s.AtFunc(1000*sim.Nanosecond, func(s *sim.Simulator) { l.SetDown(s, false) })
	s.Run()

	if len(c.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(c.pkts))
	}
	if c.pkts[0].ID != 1 || c.pkts[1].ID != 2 {
		t.Errorf("delivered IDs %d,%d", c.pkts[0].ID, c.pkts[1].ID)
	}
	// Packet 2 resumed only after the link came back: 1000ns + 120ns tx.
	if want := 1120 * sim.Nanosecond; c.times[1] != want {
		t.Errorf("queued packet resumed at %v, want %v", c.times[1], want)
	}
	if l.Stats(s.Now()).FaultDropPackets != 1 || l.Stats(s.Now()).FaultDropBytes != 1500 {
		t.Errorf("fault drops = %d/%dB, want 1/1500B",
			l.Stats(s.Now()).FaultDropPackets, l.Stats(s.Now()).FaultDropBytes)
	}
	if l.Stats(s.Now()).DropPackets != 0 || congDrops != 0 {
		t.Error("blackholed packet was counted as a congestion drop")
	}
	if l.Down() {
		t.Error("link still reports down")
	}
}

func TestLinkSetDownIdempotent(t *testing.T) {
	s := sim.New(1)
	c := &collector{}
	l := NewLink("l", 100*sim.Gbps, 0, wfq.NewFIFO(0), c)
	l.SetDown(s, true)
	l.SetDown(s, true) // no-op
	l.Send(s, &Packet{Size: 100})
	l.SetDown(s, false)
	l.SetDown(s, false) // no-op; must not double-kick
	l.Send(s, &Packet{Size: 100, ID: 9})
	s.Run()
	if len(c.pkts) != 1 || c.pkts[0].ID != 9 {
		t.Fatalf("delivered %d packets", len(c.pkts))
	}
}

func TestLinkRandomLoss(t *testing.T) {
	s := sim.New(1)
	c := &collector{}
	l := NewLink("l", 100*sim.Gbps, 0, wfq.NewFIFO(0), c)
	l.SetLoss(0.3, rand.New(rand.NewSource(42)))
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send(s, &Packet{Size: 1500})
	}
	s.Run()
	lost := int(l.Stats(s.Now()).FaultDropPackets)
	if len(c.pkts)+lost != n {
		t.Fatalf("conservation: delivered %d + lost %d != %d", len(c.pkts), lost, n)
	}
	if frac := float64(lost) / n; frac < 0.27 || frac > 0.33 {
		t.Errorf("loss fraction %v, want ~0.3", frac)
	}
	// Clearing the loss restores lossless delivery.
	l.SetLoss(0, nil)
	before := len(c.pkts)
	for i := 0; i < 100; i++ {
		l.Send(s, &Packet{Size: 1500})
	}
	s.Run()
	if len(c.pkts)-before != 100 {
		t.Errorf("post-clear delivered %d, want 100", len(c.pkts)-before)
	}
}

func TestNetworkLinkByName(t *testing.T) {
	net, err := New(Config{Hosts: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]*Link{}
	net.ForEachLink(func(l *Link) { seen[l.Name] = l })
	if len(seen) == 0 {
		t.Fatal("no links")
	}
	for name, l := range seen {
		if got := net.LinkByName(name); got != l {
			t.Errorf("LinkByName(%q) = %p, want %p", name, got, l)
		}
	}
	if net.LinkByName("nope") != nil {
		t.Error("unknown name resolved")
	}
	if net.Host(2).Uplink == nil || net.Downlink(2) == nil {
		t.Error("host access links not exposed")
	}
}
