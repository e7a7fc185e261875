package rpc

import (
	"testing"

	"aequitas/internal/netsim"
	"aequitas/internal/qos"
	"aequitas/internal/sim"
	"aequitas/internal/transport"
	"aequitas/internal/wfq"
)

func setup(t *testing.T, hosts int, admitters []Admitter) (*netsim.Network, []*Stack) {
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
	stacks := make([]*Stack, hosts)
	for i := 0; i < hosts; i++ {
		ep := transport.NewEndpoint(net, net.Host(i), transport.Config{
			NewCC: func() transport.CC { return transport.SwiftDefaults(10 * sim.Microsecond) },
		})
		var a Admitter
		if admitters != nil {
			a = admitters[i]
		}
		stacks[i] = NewStack(ep, a)
	}
	return net, stacks
}

func TestIssueAndRNLMeasurement(t *testing.T) {
	_, stacks := setup(t, 2, nil)
	s := sim.New(1)
	var got *RPC
	stacks[0].OnComplete = func(_ *sim.Simulator, r *RPC) { got = r }
	stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 32 * 1024})
	s.Run()
	if got == nil {
		t.Fatal("RPC did not complete")
	}
	if got.QoSRequested != qos.High || got.QoSRun != qos.High {
		t.Errorf("QoS mapping: requested %v run %v", got.QoSRequested, got.QoSRun)
	}
	if got.Downgraded {
		t.Error("PassThrough downgraded an RPC")
	}
	if got.RNL <= 0 {
		t.Errorf("RNL = %v", got.RNL)
	}
	// RNL must be at least the line-rate serialisation time of the
	// payload and no more than the whole run.
	if min := (100 * sim.Gbps).TxTime(32 * 1024); got.RNL < min {
		t.Errorf("RNL %v below line-rate bound %v", got.RNL, min)
	}
	if got.CompleteTime-got.IssueTime != got.RNL {
		t.Errorf("RNL %v != complete-issue %v", got.RNL, got.CompleteTime-got.IssueTime)
	}
	if got.SizeMTUs != netsim.MTUsFor(32*1024) {
		t.Errorf("SizeMTUs = %d", got.SizeMTUs)
	}
}

func TestPriorityMapping(t *testing.T) {
	_, stacks := setup(t, 2, nil)
	s := sim.New(1)
	classes := map[qos.Priority]qos.Class{}
	stacks[0].OnComplete = func(_ *sim.Simulator, r *RPC) { classes[r.Priority] = r.QoSRun }
	for _, p := range []qos.Priority{qos.PC, qos.NC, qos.BE} {
		stacks[0].Issue(s, &RPC{Dst: 1, Priority: p, Bytes: 1000})
	}
	s.Run()
	want := map[qos.Priority]qos.Class{qos.PC: qos.High, qos.NC: qos.Medium, qos.BE: qos.Low}
	for p, c := range want {
		if classes[p] != c {
			t.Errorf("%v ran on %v, want %v", p, classes[p], c)
		}
	}
}

// downgradeAll demotes every RPC, for testing stack bookkeeping.
type downgradeAll struct{ observed int }

func (d *downgradeAll) Admit(_ int, _ qos.Class, _ int64) Decision {
	return Decision{Class: qos.Low, Downgraded: true}
}
func (d *downgradeAll) Observe(_ int, _ qos.Class, _ sim.Duration, _ int64) {
	d.observed++
}

func TestDowngradeBookkeeping(t *testing.T) {
	adm := &downgradeAll{}
	_, stacks := setup(t, 2, []Admitter{adm, PassThrough{}})
	s := sim.New(1)
	var completed []*RPC
	stacks[0].OnComplete = func(_ *sim.Simulator, r *RPC) { completed = append(completed, r) }
	for i := 0; i < 5; i++ {
		stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 5000})
	}
	s.Run()
	if len(completed) != 5 {
		t.Fatalf("completed %d", len(completed))
	}
	for _, r := range completed {
		if !r.Downgraded || r.QoSRun != qos.Low {
			t.Errorf("rpc %d: downgraded=%v class=%v", r.ID, r.Downgraded, r.QoSRun)
		}
	}
	if stacks[0].Stats.Downgraded != 5 {
		t.Errorf("Stats.Downgraded = %d", stacks[0].Stats.Downgraded)
	}
	if adm.observed != 5 {
		t.Errorf("admitter observed %d completions", adm.observed)
	}
}

// dropAll rejects every RPC.
type dropAll struct{}

func (dropAll) Admit(int, qos.Class, int64) Decision        { return Decision{Dropped: true} }
func (dropAll) Observe(int, qos.Class, sim.Duration, int64) {}

func TestDropDecision(t *testing.T) {
	_, stacks := setup(t, 2, []Admitter{dropAll{}, PassThrough{}})
	s := sim.New(1)
	completed := 0
	stacks[0].OnComplete = func(*sim.Simulator, *RPC) { completed++ }
	for i := 0; i < 3; i++ {
		stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 1000})
	}
	s.Run()
	if completed != 0 {
		t.Errorf("dropped RPCs completed: %d", completed)
	}
	if stacks[0].Stats.Dropped != 3 {
		t.Errorf("Stats.Dropped = %d", stacks[0].Stats.Dropped)
	}
	if stacks[0].Outstanding(1) != 0 {
		t.Errorf("dropped RPCs counted outstanding: %d", stacks[0].Outstanding(1))
	}
}

func TestOutstandingTracking(t *testing.T) {
	_, stacks := setup(t, 3, nil)
	s := sim.New(1)
	for i := 0; i < 4; i++ {
		stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 64 * 1024})
	}
	stacks[0].Issue(s, &RPC{Dst: 2, Priority: qos.PC, Bytes: 64 * 1024})
	if got := stacks[0].Outstanding(1); got != 4 {
		t.Errorf("Outstanding(1) = %d, want 4", got)
	}
	if got := stacks[0].Outstanding(2); got != 1 {
		t.Errorf("Outstanding(2) = %d, want 1", got)
	}
	s.Run()
	if got := stacks[0].Outstanding(1); got != 0 {
		t.Errorf("Outstanding(1) after drain = %d", got)
	}
	if stacks[0].Stats.Completed != 5 {
		t.Errorf("Completed = %d", stacks[0].Stats.Completed)
	}
}

func TestAutoIDAssignment(t *testing.T) {
	_, stacks := setup(t, 2, nil)
	s := sim.New(1)
	ids := map[uint64]bool{}
	stacks[0].OnComplete = func(_ *sim.Simulator, r *RPC) { ids[r.ID] = true }
	for i := 0; i < 10; i++ {
		stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 100})
	}
	s.Run()
	if len(ids) != 10 {
		t.Errorf("expected 10 unique ids, got %d", len(ids))
	}
	if ids[0] {
		t.Error("an RPC kept id 0")
	}
}

// Larger RPCs must observe proportionally larger RNL under a saturated
// link (sanity of the per-MTU normalisation story).
func TestRNLGrowsWithSize(t *testing.T) {
	_, stacks := setup(t, 2, nil)
	s := sim.New(1)
	rnls := map[int64]sim.Duration{}
	stacks[0].OnComplete = func(_ *sim.Simulator, r *RPC) { rnls[r.Bytes] = r.RNL }
	stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 8 * 1024})
	s.Run()
	stacks[0].Issue(s, &RPC{Dst: 1, Priority: qos.PC, Bytes: 256 * 1024})
	s.Run()
	if rnls[256*1024] <= rnls[8*1024] {
		t.Errorf("RNL(256K)=%v not larger than RNL(8K)=%v", rnls[256*1024], rnls[8*1024])
	}
}
