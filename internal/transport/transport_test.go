package transport

import (
	"slices"
	"testing"
	"testing/quick"

	"aequitas/internal/netsim"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/wfq"
)

func testNet(t *testing.T, hosts int) *netsim.Network {
	t.Helper()
	net, err := netsim.New(netsim.Config{
		Hosts: hosts,
		SwitchSched: func() wfq.Scheduler {
			return wfq.NewWFQ([]float64{8, 4, 1}, 2<<20)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func swiftCfg() Config {
	return Config{NewCC: func() CC { return SwiftDefaults(10 * sim.Microsecond) }}
}

func fixedCfg(w float64) Config {
	return Config{NewCC: func() CC { return Fixed{W: w} }}
}

func endpoints(t *testing.T, net *netsim.Network, cfg Config) []*Endpoint {
	t.Helper()
	eps := make([]*Endpoint, net.Hosts())
	for i := range eps {
		eps[i] = NewEndpoint(net, net.Host(i), cfg)
	}
	return eps
}

func TestSingleMessageDelivery(t *testing.T) {
	net := testNet(t, 2)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	var done []sim.Time
	eps[0].Send(s, &Message{
		ID: 1, Dst: 1, Class: qos.High, Bytes: 32 * 1024,
		OnComplete: func(s *sim.Simulator, m *Message) { done = append(done, s.Now()) },
	})
	s.Run()
	if len(done) != 1 {
		t.Fatalf("completed %d messages, want 1", len(done))
	}
	// Lower bound: serialisation of 32 KB across the uplink.
	minTime := (100 * sim.Gbps).TxTime(32 * 1024)
	if done[0] < minTime {
		t.Errorf("completed at %v, faster than line rate %v", done[0], minTime)
	}
	if eps[0].Stats.MsgsCompleted != 1 || eps[0].Stats.BytesAcked != 32*1024 {
		t.Errorf("stats = %+v", eps[0].Stats)
	}
}

func TestSmallMessageSinglePacket(t *testing.T) {
	net := testNet(t, 2)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	completed := false
	eps[0].Send(s, &Message{ID: 1, Dst: 1, Class: qos.High, Bytes: 100,
		OnComplete: func(*sim.Simulator, *Message) { completed = true }})
	s.Run()
	if !completed {
		t.Fatal("single-packet message did not complete")
	}
}

func TestMessagesCompleteInOrder(t *testing.T) {
	net := testNet(t, 2)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	var order []uint64
	for i := 1; i <= 10; i++ {
		eps[0].Send(s, &Message{
			ID: uint64(i), Dst: 1, Class: qos.High, Bytes: 10 * 1024,
			OnComplete: func(_ *sim.Simulator, m *Message) { order = append(order, m.ID) },
		})
	}
	s.Run()
	if len(order) != 10 {
		t.Fatalf("completed %d, want 10", len(order))
	}
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("completion order %v", order)
		}
	}
}

func TestThroughputApproachesLineRate(t *testing.T) {
	net := testNet(t, 2)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	const total = 8 << 20 // 8 MB
	var finish sim.Time
	eps[0].Send(s, &Message{ID: 1, Dst: 1, Class: qos.High, Bytes: total,
		OnComplete: func(s *sim.Simulator, m *Message) { finish = s.Now() }})
	s.Run()
	if finish == 0 {
		t.Fatal("did not complete")
	}
	// Goodput should be at least 60% of line rate despite header
	// overhead and ramp-up.
	goodput := float64(total) * 8 / finish.Seconds()
	if goodput < 0.6e11 {
		t.Errorf("goodput %.3g bps, want > 60 Gbps", goodput)
	}
}

func TestConcurrentClassesAreIndependentStreams(t *testing.T) {
	net := testNet(t, 2)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	done := map[qos.Class]bool{}
	for _, c := range []qos.Class{qos.High, qos.Medium, qos.Low} {
		c := c
		eps[0].Send(s, &Message{ID: uint64(c + 1), Dst: 1, Class: c, Bytes: 64 * 1024,
			OnComplete: func(*sim.Simulator, *Message) { done[c] = true }})
	}
	s.Run()
	for _, c := range []qos.Class{qos.High, qos.Medium, qos.Low} {
		if !done[c] {
			t.Errorf("class %v did not complete", c)
		}
	}
}

func TestRecoveryFromDrops(t *testing.T) {
	// Tiny switch buffers force drops; the RTO path must still deliver
	// everything.
	net, err := netsim.New(netsim.Config{
		Hosts: 3,
		SwitchSched: func() wfq.Scheduler {
			return wfq.NewWFQ([]float64{8, 4, 1}, 8*1500)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*Endpoint, 3)
	for i := range eps {
		eps[i] = NewEndpoint(net, net.Host(i), Config{
			NewCC:  func() CC { return Fixed{W: 64} }, // aggressive: provoke loss
			RTOMin: 50 * sim.Microsecond,
		})
	}
	s := sim.New(1)
	completed := 0
	for i := 0; i < 4; i++ {
		eps[0].Send(s, &Message{ID: uint64(i), Dst: 2, Class: qos.High, Bytes: 256 * 1024,
			OnComplete: func(*sim.Simulator, *Message) { completed++ }})
		eps[1].Send(s, &Message{ID: uint64(100 + i), Dst: 2, Class: qos.High, Bytes: 256 * 1024,
			OnComplete: func(*sim.Simulator, *Message) { completed++ }})
	}
	s.Run()
	if completed != 8 {
		t.Fatalf("completed %d of 8 despite retransmission", completed)
	}
	drops, _ := net.TotalDropped(s.Now())
	if drops == 0 {
		t.Error("test did not actually provoke drops; tighten buffers")
	}
	if eps[0].Stats.Retransmits == 0 && eps[1].Stats.Retransmits == 0 {
		t.Error("no retransmissions recorded")
	}
}

func TestQueuedBytes(t *testing.T) {
	net := testNet(t, 2)
	eps := endpoints(t, net, fixedCfg(1))
	s := sim.New(1)
	eps[0].Send(s, &Message{ID: 1, Dst: 1, Class: qos.High, Bytes: 100 * 1024})
	if got := eps[0].QueuedBytes(1, qos.High); got != 100*1024 {
		t.Errorf("QueuedBytes = %d, want all queued at t=0", got)
	}
	if got := eps[0].QueuedBytes(1, qos.Low); got != 0 {
		t.Errorf("QueuedBytes other class = %d", got)
	}
	s.Run()
	if got := eps[0].QueuedBytes(1, qos.High); got != 0 {
		t.Errorf("QueuedBytes after drain = %d", got)
	}
}

func TestSendValidation(t *testing.T) {
	net := testNet(t, 2)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	for _, m := range []*Message{
		{ID: 1, Dst: 1, Bytes: 0},
		{ID: 2, Dst: 0, Bytes: 10}, // to self
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send(%+v) did not panic", m)
				}
			}()
			eps[0].Send(s, m)
		}()
	}
}

func TestSwiftAdditiveIncrease(t *testing.T) {
	sw := SwiftDefaults(10 * sim.Microsecond)
	w0 := sw.Window()
	for i := 0; i < 100; i++ {
		sw.OnAck(sim.Time(i)*sim.Microsecond, 5*sim.Microsecond, 1)
	}
	if sw.Window() <= w0 {
		t.Errorf("window did not grow under target: %v -> %v", w0, sw.Window())
	}
	if sw.Window() > sw.MaxCwnd {
		t.Errorf("window exceeded max: %v", sw.Window())
	}
}

func TestSwiftMultiplicativeDecreaseOncePerRTT(t *testing.T) {
	sw := SwiftDefaults(10 * sim.Microsecond)
	w0 := sw.Window()
	now := sim.Time(1 * sim.Millisecond)
	rtt := 40 * sim.Microsecond // 4× over target
	sw.OnAck(now, rtt, 1)
	w1 := sw.Window()
	if w1 >= w0 {
		t.Fatalf("no decrease: %v -> %v", w0, w1)
	}
	// A second over-target ack within the same RTT must not decrease
	// again.
	sw.OnAck(now+sim.Time(rtt)/2, rtt, 1)
	if sw.Window() != w1 {
		t.Errorf("second decrease within one RTT: %v -> %v", w1, sw.Window())
	}
	// After an RTT has passed, decrease is allowed again.
	sw.OnAck(now+sim.Time(rtt)+1, rtt, 1)
	if sw.Window() >= w1 {
		t.Error("no decrease after an RTT elapsed")
	}
}

func TestSwiftDecreaseBounded(t *testing.T) {
	sw := SwiftDefaults(10 * sim.Microsecond)
	w0 := sw.Window()
	// An extreme RTT cannot cut the window by more than MaxMDF.
	sw.OnAck(sim.Time(1*sim.Millisecond), 10*sim.Millisecond, 1)
	if min := w0 * (1 - sw.MaxMDF); sw.Window() < min-1e-9 {
		t.Errorf("decrease exceeded MaxMDF: %v -> %v", w0, sw.Window())
	}
}

func TestSwiftSubPacketWindow(t *testing.T) {
	sw := SwiftDefaults(10 * sim.Microsecond)
	now := sim.Time(0)
	rtt := 100 * sim.Microsecond
	for i := 0; i < 200; i++ {
		now += sim.Time(rtt) + 1
		sw.OnAck(now, rtt, 1)
	}
	if sw.Window() < sw.MinCwnd {
		t.Errorf("window below MinCwnd: %v", sw.Window())
	}
	if sw.Window() >= 1 {
		t.Errorf("persistent congestion should drive window below 1: %v", sw.Window())
	}
	// Recovery: windows below 1 grow additively per ack.
	w := sw.Window()
	sw.OnAck(now+1000, 5*sim.Microsecond, 1)
	if sw.Window() <= w {
		t.Error("no recovery from sub-packet window")
	}
}

func TestSwiftRetransmitDecrease(t *testing.T) {
	sw := SwiftDefaults(10 * sim.Microsecond)
	w0 := sw.Window()
	sw.OnRetransmit(sim.Time(1 * sim.Millisecond))
	if want := w0 * (1 - sw.MaxMDF); sw.Window() != want {
		t.Errorf("retransmit decrease: %v, want %v", sw.Window(), want)
	}
}

// Property: the Swift window always stays within [MinCwnd, MaxCwnd]
// under arbitrary ack sequences.
func TestSwiftWindowBoundsProperty(t *testing.T) {
	f := func(rtts []uint32) bool {
		sw := SwiftDefaults(10 * sim.Microsecond)
		now := sim.Time(0)
		for _, r := range rtts {
			rtt := sim.Duration(r%100000) * sim.Nanosecond
			if rtt == 0 {
				rtt = sim.Nanosecond
			}
			now += sim.Time(rtt)
			sw.OnAck(now, rtt, 1+int(r%3))
			if sw.Window() < sw.MinCwnd-1e-12 || sw.Window() > sw.MaxCwnd+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Byte conservation across the transport: everything submitted is
// eventually acked exactly once, under random workloads and tight buffers.
func TestTransportConservationProperty(t *testing.T) {
	f := func(seed int64, msgSizes []uint16) bool {
		if len(msgSizes) == 0 {
			return true
		}
		if len(msgSizes) > 40 {
			msgSizes = msgSizes[:40]
		}
		net, err := netsim.New(netsim.Config{
			Hosts: 4,
			SwitchSched: func() wfq.Scheduler {
				return wfq.NewWFQ([]float64{8, 4, 1}, 16*1500)
			},
		})
		if err != nil {
			return false
		}
		s := sim.New(seed)
		eps := make([]*Endpoint, 4)
		for i := range eps {
			eps[i] = NewEndpoint(net, net.Host(i), Config{
				NewCC:  func() CC { return SwiftDefaults(10 * sim.Microsecond) },
				RTOMin: 50 * sim.Microsecond,
			})
		}
		var want, completed int64
		for i, sz := range msgSizes {
			bytes := int64(sz%50000) + 1
			src := i % 4
			dst := (i + 1 + int(sz)%3) % 4
			if dst == src {
				dst = (dst + 1) % 4
			}
			want++
			eps[src].Send(s, &Message{
				ID: uint64(i), Dst: dst, Class: qos.Class(int(sz) % 3), Bytes: bytes,
				OnComplete: func(*sim.Simulator, *Message) { completed++ },
			})
		}
		s.Run()
		return completed == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMetricsSamplerSteadyState: a stream's two names are built the first
// time it is reported; a tick that finds no new stream emits the same
// strings and allocates nothing, and a stream opened later adds its own.
func TestMetricsSamplerSteadyState(t *testing.T) {
	net := testNet(t, 3)
	eps := endpoints(t, net, swiftCfg())
	s := sim.New(1)
	eps[0].Send(s, &Message{ID: 1, Dst: 1, Class: qos.High, Bytes: 64 << 10})
	eps[0].Send(s, &Message{ID: 2, Dst: 2, Class: qos.Low, Bytes: 64 << 10})
	sample := eps[0].MetricsSampler()
	var first []string
	sample(0, func(name string, _ float64) { first = append(first, name) })
	want := []string{"cwnd.h0.d1.q0", "srtt_us.h0.d1.q0", "cwnd.h0.d2.q2", "srtt_us.h0.d2.q2"}
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
	eps[0].Send(s, &Message{ID: 3, Dst: 1, Class: qos.Medium, Bytes: 64 << 10})
	var later []string
	sample(0, func(name string, _ float64) { later = append(later, name) })
	if want := slices.Insert(want, 2, "cwnd.h0.d1.q1", "srtt_us.h0.d1.q1"); !slices.Equal(later, want) {
		t.Errorf("with a third stream the tick emitted %v, want %v", later, want)
	}
}
