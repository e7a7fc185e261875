package aequitas

import (
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"aequitas/internal/core"
	"aequitas/internal/sim"
)

// testClock is a manual clock whose every draw is 0.5 — admitted while
// p_admit is above it, downgraded once p_admit has fallen below — and the
// function that advances it.
func testClock() (*core.ManualClock, func(time.Duration)) {
	clk := &core.ManualClock{}
	clk.SetDraw(0.5)
	return clk, func(d time.Duration) { clk.SetNow(clk.Now() + sim.FromStd(d)) }
}

func newPublicController(t *testing.T) (*AdmissionController, func(time.Duration)) {
	t.Helper()
	clock, advance := testClock()
	c, err := NewControllerWithClock(ControllerConfig{
		SLOs: []SLO{
			{Target: 15 * time.Microsecond, ReferenceBytes: 32 << 10},
			{Target: 25 * time.Microsecond, ReferenceBytes: 32 << 10},
		},
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	return c, advance
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(ControllerConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewController(ControllerConfig{SLOs: []SLO{{Target: -time.Second}}}); err == nil {
		t.Error("negative target accepted")
	}
}

func TestControllerAdmitsInitially(t *testing.T) {
	c, _ := newPublicController(t)
	for i := 0; i < 50; i++ {
		d := c.Admit("server-1", High, 32<<10)
		if d.Downgraded || d.Class != High {
			t.Fatalf("initial admit failed: %+v", d)
		}
	}
	if p := c.AdmitProbability("server-1", High); p != 1 {
		t.Errorf("initial p = %v", p)
	}
}

func TestControllerDowngradesAfterMisses(t *testing.T) {
	c, advance := newPublicController(t)
	for i := 0; i < 50; i++ {
		c.Observe("server-1", High, 10*time.Millisecond, 32<<10)
		advance(time.Millisecond)
	}
	if p := c.AdmitProbability("server-1", High); p > 0.2 {
		t.Fatalf("p after misses = %v", p)
	}
	downgrades := 0
	for i := 0; i < 200; i++ {
		if d := c.Admit("server-1", High, 32<<10); d.Downgraded {
			downgrades++
			if d.Class != Low {
				t.Fatalf("downgraded to %v", d.Class)
			}
		}
	}
	if downgrades < 100 {
		t.Errorf("only %d/200 downgrades at low p_admit", downgrades)
	}
	// Another peer is unaffected.
	if p := c.AdmitProbability("server-2", High); p != 1 {
		t.Errorf("peer isolation broken: p = %v", p)
	}
}

func TestControllerRecovers(t *testing.T) {
	c, advance := newPublicController(t)
	for i := 0; i < 50; i++ {
		c.Observe("s", High, 10*time.Millisecond, 32<<10)
	}
	low := c.AdmitProbability("s", High)
	// Compliant completions spaced beyond the increment window raise p.
	for i := 0; i < 20; i++ {
		advance(20 * time.Millisecond)
		c.Observe("s", High, time.Microsecond, 32<<10)
	}
	if got := c.AdmitProbability("s", High); got <= low {
		t.Errorf("no recovery: %v -> %v", low, got)
	}
}

func TestControllerPerMTUSLO(t *testing.T) {
	clock, _ := testClock()
	c, err := NewControllerWithClock(ControllerConfig{
		SLOs: []SLO{{Target: time.Microsecond}}, // per-MTU directly
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	// A 10-MTU RPC at 5 µs is compliant (0.5 µs/MTU)...
	c.Observe("s", High, 5*time.Microsecond, 10*1436)
	if p := c.AdmitProbability("s", High); p != 1 {
		t.Errorf("compliant observation decreased p to %v", p)
	}
	// ...but at 20 µs it misses (2 µs/MTU).
	c.Observe("s", High, 20*time.Microsecond, 10*1436)
	if p := c.AdmitProbability("s", High); p >= 1 {
		t.Error("miss did not decrease p")
	}
}

// TestPeerTableOverflow interns twice MaxPeers names, the second half
// from several goroutines: the first MaxPeers keep dense ids of their
// own, every later name is the overflow channel. A peer that names
// itself OverflowPeer before the table fills is on that channel already,
// so the name never means two channels.
func TestPeerTableOverflow(t *testing.T) {
	c, _ := newPublicController(t)
	for i := 0; i < MaxPeers; i++ {
		if id := c.PeerID("early-" + strconv.Itoa(i)); id != i {
			t.Fatalf("peer %d interned as %d", i, id)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < MaxPeers/4; i++ {
				if id := c.PeerID("late-" + strconv.Itoa(g) + "-" + strconv.Itoa(i)); id != MaxPeers {
					t.Errorf("peer past the bound interned as %d", id)
				}
				if id := c.PeerID("early-" + strconv.Itoa(i)); id != i {
					t.Errorf("peer %d now resolves to %d", i, id)
				}
			}
		}()
	}
	wg.Wait()
	if got := len(c.peers.Load().names); got != MaxPeers || c.PeerName(MaxPeers) != OverflowPeer {
		t.Errorf("table holds %d names, the overflow channel is %q", got, c.PeerName(MaxPeers))
	}

	c, _ = newPublicController(t)
	c.Observe(OverflowPeer, High, time.Second, 1)
	for i := 0; i <= MaxPeers; i++ {
		c.Admit("peer-"+strconv.Itoa(i), High, 1)
	}
	seen := map[string]int{}
	c.ForEachProbability(func(peer string, class Class, p float64) {
		if seen[peer+"/"+class.String()]++; peer == OverflowPeer && p == 1 {
			t.Errorf("%s/%v has p_admit 1: the early miss is on another channel", peer, class)
		}
	})
	if len(seen) != MaxPeers+1 || seen[OverflowPeer+"/"+High.String()] != 1 {
		t.Errorf("%d channels, overflow reported %d times, want %d and once",
			len(seen), seen[OverflowPeer+"/"+High.String()], MaxPeers+1)
	}
}

// TestFacadeAndSimulationShareCoreConfig: the same SLOs give the facade's
// controller and a simulation's controllers the same Algorithm 1
// settings, defaults included.
func TestFacadeAndSimulationShareCoreConfig(t *testing.T) {
	sc := SimConfig{QoSWeights: []float64{8, 4, 1}, SLOs: []SLO{{Target: time.Microsecond}, {Target: 2 * time.Microsecond, Percentile: 99}}}
	fromSim := coreConfig(sc.levels(), sc.SLOs, sc.Admission)
	facade, err := NewController(ControllerConfig{SLOs: sc.SLOs})
	if err != nil {
		t.Fatal(err)
	}
	if got := facade.Core().Config(); !reflect.DeepEqual(got, fromSim) {
		t.Errorf("facade runs %+v, a simulation %+v", got, fromSim)
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{T: []float64{0, 1, 2, 3}, V: []float64{0, 10, 20, 20}}
	if got := s.Final(-1); got != 20 {
		t.Errorf("Final = %v", got)
	}
	if got := (Series{}).Final(-1); got != -1 {
		t.Errorf("empty Final = %v", got)
	}
	if got := s.MeanAfter(2); got != 20 {
		t.Errorf("MeanAfter = %v", got)
	}
	if got := s.MeanAfter(99); !math.IsNaN(got) {
		t.Errorf("MeanAfter beyond range = %v, want NaN", got)
	}
	if _, ok := s.MeanAfterOK(99); ok {
		t.Error("MeanAfterOK beyond range reported ok")
	}
	if got, ok := s.MeanAfterOK(2); !ok || got != 20 {
		t.Errorf("MeanAfterOK = %v, %v", got, ok)
	}
	if got := s.SettlingTime(0.5); got != 2 {
		t.Errorf("SettlingTime = %v", got)
	}
}

func TestSLOPerMTUConversion(t *testing.T) {
	s := SLO{Target: 22 * time.Microsecond, ReferenceBytes: 22 * 1436}
	perMTU := s.perMTU()
	if got := float64(perMTU) / 1e6; math.Abs(got-1) > 1e-9 { // 1 µs in ps
		t.Errorf("perMTU = %v ps, want 1us", perMTU)
	}
	direct := SLO{Target: time.Microsecond}
	if direct.perMTU() != s.perMTU() {
		t.Error("ReferenceBytes normalisation inconsistent")
	}
}
