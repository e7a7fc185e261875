package transport

import (
	"math/rand"
	"slices"
	"testing"

	"aequitas/internal/netsim"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
)

// TestRecoveryFromRandomLoss injects independent per-packet random loss on
// every link (data and acks alike) and verifies the RTO path recovers
// everything: each message completes exactly once and BytesAcked matches
// the bytes submitted, with no duplicates from go-back-N retransmission.
func TestRecoveryFromRandomLoss(t *testing.T) {
	net := testNet(t, 3)
	lossRNG := rand.New(rand.NewSource(7))
	net.ForEachLink(func(l *netsim.Link) { l.SetLoss(0.02, lossRNG) })
	eps := make([]*Endpoint, 3)
	for i := range eps {
		eps[i] = NewEndpoint(net, net.Host(i), Config{
			NewCC:  func() CC { return SwiftDefaults(10 * sim.Microsecond) },
			RTOMin: 50 * sim.Microsecond,
		})
	}
	s := sim.New(1)
	const n = 30
	var total int64
	completions := map[uint64]int{}
	for i := 0; i < n; i++ {
		bytes := int64(5000 + 1000*i)
		total += bytes
		eps[0].Send(s, &Message{
			ID: uint64(i), Dst: 1 + i%2, Class: qos.Class(i % 3), Bytes: bytes,
			OnComplete: func(_ *sim.Simulator, m *Message) { completions[m.ID]++ },
		})
	}
	s.Run()
	for i := 0; i < n; i++ {
		if completions[uint64(i)] != 1 {
			t.Errorf("message %d completed %d times", i, completions[uint64(i)])
		}
	}
	if eps[0].Stats.BytesAcked != total {
		t.Errorf("BytesAcked = %d, want exactly %d", eps[0].Stats.BytesAcked, total)
	}
	var faultDrops int64
	net.ForEachLink(func(l *netsim.Link) { faultDrops += l.Stats(s.Now()).FaultDropPackets })
	if faultDrops == 0 {
		t.Error("loss injection did not actually drop anything; raise the rate")
	}
	if eps[0].Stats.Retransmits == 0 {
		t.Error("recovery happened without retransmissions?")
	}
}

// TestCrashDiscardsStateSilently crashes a receiver mid-transfer: the
// sender's message must not complete, the crashed endpoint must ignore
// traffic and sends until Restart, and no callbacks fire from Crash itself.
func TestCrashDiscardsStateSilently(t *testing.T) {
	net := testNet(t, 2)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	completed, failed := 0, 0
	eps[0].Send(s, &Message{
		ID: 1, Dst: 1, Class: qos.High, Bytes: 1 << 20,
		OnComplete: func(*sim.Simulator, *Message) { completed++ },
		OnFail:     func(*sim.Simulator, *Message) { failed++ },
	})
	s.AtFunc(5*sim.Microsecond, func(s *sim.Simulator) {
		eps[1].Crash(s)
		if !eps[1].Down() {
			t.Error("Down() false after Crash")
		}
		// A crashed endpoint drops its own sends on the floor.
		eps[1].Send(s, &Message{ID: 9, Dst: 0, Class: qos.High, Bytes: 100,
			OnComplete: func(*sim.Simulator, *Message) { t.Error("send from crashed host completed") }})
	})
	// Bound the run: the sender's RTO will keep retrying into the void.
	s.RunUntil(50 * sim.Millisecond)
	if completed != 0 {
		t.Errorf("message completed %d times against a crashed peer", completed)
	}
	if failed != 0 {
		t.Error("Crash fired OnFail on the remote sender (only ResetPeer should)")
	}
	if eps[1].Stats.MsgsSent != 0 {
		t.Error("crashed endpoint accepted a send")
	}
}

// TestResetPeerFailsInflightAndEpochRejectsStaleAcks covers the
// crash-notification path: ResetPeer fires OnFail for every incomplete
// message toward the peer, bumps the stream epoch so in-flight stale acks
// cannot complete re-sent messages, and a fresh attempt after the peer
// restarts completes normally.
func TestResetPeerFailsInflightAndEpochRejectsStaleAcks(t *testing.T) {
	net := testNet(t, 2)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	var failedIDs []uint64
	completed := map[uint64]int{}
	send := func(s *sim.Simulator, id uint64, class qos.Class) {
		eps[0].Send(s, &Message{
			ID: id, Dst: 1, Class: class, Bytes: 256 * 1024,
			OnComplete: func(_ *sim.Simulator, m *Message) { completed[m.ID]++ },
			OnFail:     func(_ *sim.Simulator, m *Message) { failedIDs = append(failedIDs, m.ID) },
		})
	}
	send(s, 1, qos.High)
	send(s, 2, qos.Low)
	// Mid-transfer, host 1 "crashes": its endpoint goes down and the
	// sender is notified, exactly as the run harness does it. Acks already
	// in flight from before the reset arrive afterward and must be
	// ignored (stale epoch), not credited to the retry stream.
	s.AtFunc(5*sim.Microsecond, func(s *sim.Simulator) {
		eps[1].Crash(s)
		eps[0].ResetPeer(s, 1)
		if len(failedIDs) != 2 || failedIDs[0] != 1 || failedIDs[1] != 2 {
			t.Fatalf("OnFail ids = %v, want [1 2] in class order", failedIDs)
		}
		// Retry immediately on the new epoch while the peer is still down,
		// then restart the peer shortly after.
		send(s, 3, qos.High)
	})
	s.AtFunc(200*sim.Microsecond, func(s *sim.Simulator) { eps[1].Restart(s) })
	s.Run()
	if completed[1] != 0 || completed[2] != 0 {
		t.Errorf("pre-crash messages completed: %v", completed)
	}
	if completed[3] != 1 {
		t.Errorf("post-reset retry completed %d times, want 1", completed[3])
	}
}

// TestReceiverEpochRestart verifies the receiver discards pre-crash
// reassembly state when the sender's epoch advances: a sender-side crash
// rebuilds the stream from offset zero and the receiver must follow.
func TestReceiverEpochRestart(t *testing.T) {
	net := testNet(t, 2)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	done := 0
	eps[0].Send(s, &Message{ID: 1, Dst: 1, Class: qos.High, Bytes: 1 << 20})
	s.AtFunc(5*sim.Microsecond, func(s *sim.Simulator) {
		// Sender crashes and restarts: stream state is gone, epoch bumped.
		eps[0].Crash(s)
		eps[0].Restart(s)
		eps[0].Send(s, &Message{ID: 2, Dst: 1, Class: qos.High, Bytes: 64 * 1024,
			OnComplete: func(*sim.Simulator, *Message) { done++ }})
	})
	s.Run()
	if done != 1 {
		t.Fatalf("post-restart message completed %d times, want 1", done)
	}
}

// TestFaultSemanticsAcrossPeersAndClasses pins what the fault paths do
// with connection state spread over several peers and classes, created in
// an order that is neither (peer, class) order nor any hash order:
// ResetPeer fails the peer's in-flight messages class by class and FIFO
// within a class, touching no other peer; Crash fires nothing; stale-epoch
// acks and data are rejected; and an ack for a (src, class) the endpoint
// has no connection for, in or out of the table's range, is ignored.
func TestFaultSemanticsAcrossPeersAndClasses(t *testing.T) {
	net := testNet(t, 4)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	var failed []uint64
	completed := map[uint64]int{}
	nextID := uint64(0)
	send := func(s *sim.Simulator, dst int, class qos.Class) uint64 {
		nextID++
		eps[0].Send(s, &Message{
			ID: nextID, Dst: dst, Class: class, Bytes: 256 * 1024,
			OnComplete: func(_ *sim.Simulator, m *Message) { completed[m.ID]++ },
			OnFail:     func(_ *sim.Simulator, m *Message) { failed = append(failed, m.ID) },
		})
		return nextID
	}
	conns := func(e *Endpoint) (got [][2]int) {
		e.ForEachConn(func(peer int, class qos.Class, _ float64, _ sim.Duration) {
			got = append(got, [2]int{peer, int(class)})
		})
		return got
	}
	// Peer 2 gets ids 1 (class 2), 4 (class 0), 6 (class 1), 8 (class 0),
	// 10 (class 2).
	for _, pc := range [][2]int{{2, 2}, {1, 1}, {3, 0}, {2, 0}, {1, 2}, {2, 1}, {3, 2}, {2, 0}, {1, 0}, {2, 2}} {
		send(s, pc[0], qos.Class(pc[1]))
	}
	if want := [][2]int{{1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}, {3, 0}, {3, 2}}; !slices.Equal(conns(eps[0]), want) {
		t.Fatalf("ForEachConn order = %v, want %v", conns(eps[0]), want)
	}
	var retry uint64
	s.AtFunc(5*sim.Microsecond, func(s *sim.Simulator) {
		eps[2].Crash(s)
		eps[0].ResetPeer(s, 2)
		if want := []uint64{4, 8, 6, 1, 10}; !slices.Equal(failed, want) {
			t.Fatalf("OnFail ids = %v, want %v (class order, FIFO within a class)", failed, want)
		}
		for c := qos.High; c <= qos.Low; c++ {
			if q := eps[0].QueuedBytes(2, c); q != 0 {
				t.Errorf("QueuedBytes(2, %v) = %d after ResetPeer, want 0", c, q)
			}
		}
		if eps[0].QueuedBytes(1, qos.High) == 0 || eps[0].QueuedBytes(3, qos.Low) == 0 {
			t.Error("ResetPeer(2) disturbed another peer's connection")
		}
		if want := [][2]int{{1, 0}, {1, 1}, {1, 2}, {3, 0}, {3, 2}}; !slices.Equal(conns(eps[0]), want) {
			t.Errorf("conns after ResetPeer(2) = %v, want %v", conns(eps[0]), want)
		}
		// A retry on the new epoch while the peer is down: the pre-reset
		// stream's full-length ack must not complete it.
		retry = send(s, 2, qos.High)
		stale := net.AllocPacket()
		stale.Src, stale.Class, stale.Ack, stale.AckSeq, stale.Gen = 2, qos.High, true, 256*1024, eps[0].gen-1
		eps[0].HandlePacket(s, stale)
		if completed[retry] != 0 {
			t.Error("stale-epoch ack completed a message on the rebuilt connection")
		}
		// Acks nothing is waiting for: a class with no connection, a class
		// and a source beyond anything the endpoint has seen.
		for _, sc := range [][2]int{{3, 1}, {1, 9}, {99, 0}, {-1, 0}} {
			p := net.AllocPacket()
			p.Src, p.Class, p.Ack, p.AckSeq = sc[0], qos.Class(sc[1]), true, 1<<20
			eps[0].HandlePacket(s, p)
		}
	})
	s.AtFunc(200*sim.Microsecond, func(s *sim.Simulator) { eps[2].Restart(s) })
	s.Run()
	for id := uint64(1); id <= nextID; id++ {
		want := 1
		if id == 1 || id == 4 || id == 6 || id == 8 || id == 10 {
			want = 0
		}
		if completed[id] != want {
			t.Errorf("message %d completed %d times, want %d", id, completed[id], want)
		}
	}
	if len(failed) != 5 {
		t.Errorf("OnFail fired %d times in total, want 5: %v", len(failed), failed)
	}

	// Receiver side: the rebuilt stream runs on the sender's new epoch. A
	// data packet from the old one draws no ack; a duplicate on the current
	// one is re-acked.
	acks := func() int64 { return net.Host(2).Uplink.Stats(s.Now()).TxPackets }
	before := acks()
	old := net.AllocPacket()
	old.Src, old.Class, old.Seq, old.Payload, old.Gen = 0, qos.High, 0, 100, eps[0].gen-1
	eps[2].HandlePacket(s, old)
	s.Run()
	if acks() != before {
		t.Error("receiver acknowledged a stale-epoch data packet")
	}
	dup := net.AllocPacket()
	dup.Src, dup.Class, dup.Seq, dup.Payload, dup.Gen = 0, qos.High, 0, 100, eps[0].gen
	eps[2].HandlePacket(s, dup)
	s.Run()
	if acks() != before+1 {
		t.Errorf("receiver sent %d acks for a current-epoch duplicate, want 1", acks()-before)
	}

	// Crash and Restart of the sender: everything in flight is lost without
	// a callback, and the endpoint comes back empty.
	nFailed := len(failed)
	lost := send(s, 1, qos.Medium)
	send(s, 3, qos.High)
	s.RunUntil(s.Now() + 2*sim.Microsecond)
	eps[0].Crash(s)
	if got := conns(eps[0]); len(got) != 0 {
		t.Errorf("conns after Crash = %v, want none", got)
	}
	eps[0].Restart(s)
	again := send(s, 1, qos.Medium)
	s.Run()
	if len(failed) != nFailed {
		t.Errorf("Crash fired OnFail: %v", failed[nFailed:])
	}
	if completed[lost] != 0 || completed[lost+1] != 0 || completed[again] != 1 {
		t.Errorf("after Crash/Restart: lost completed %d and %d times, resend %d; want 0, 0, 1",
			completed[lost], completed[lost+1], completed[again])
	}
}
