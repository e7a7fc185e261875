package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"aequitas/internal/sim"
)

// attrFill drives one synthetic RPC through every attribution hook:
// 5 µs pacing stall before first enqueue at 10 µs, tail emitted at 30 µs,
// 3 µs NIC + 7 µs switch residency, completion at 50 µs with RNL 50 µs.
func attrFill(a *Attributor) {
	a.Issue(0, 0, 1)
	a.PaceStall(0, 1, 5*sim.Microsecond)
	a.FirstEnqueue(10*sim.Microsecond, 0, 1)
	a.TailEmit(30*sim.Microsecond, 0, 1)
	a.TailHop(33*sim.Microsecond, 0, 1, 3*sim.Microsecond)
	a.TailHop(40*sim.Microsecond, 0, 1, 7*sim.Microsecond)
	a.Complete(1, 0, 3, 0, 50*sim.Microsecond)
}

func TestAttributorDecomposition(t *testing.T) {
	a := NewAttributor(nil)
	attrFill(a)
	recs := a.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	r := recs[0]
	want := map[string][2]sim.Duration{
		"admit":     {r.Admit, 0},
		"sender":    {r.Sender, 5 * sim.Microsecond},
		"transport": {r.Transport, 20 * sim.Microsecond},
		"pacing":    {r.Pacing, 5 * sim.Microsecond},
		"nic":       {r.NIC, 3 * sim.Microsecond},
		"switch":    {r.Switch, 7 * sim.Microsecond},
		"wire":      {r.Wire, 10 * sim.Microsecond},
		"rnl":       {r.RNL, 50 * sim.Microsecond},
	}
	for name, v := range want {
		if v[0] != v[1] {
			t.Errorf("%s = %v, want %v", name, v[0], v[1])
		}
	}
	if sum := r.Admit + r.Sender + r.Transport + r.Pacing + r.NIC + r.Switch + r.Wire; sum != r.RNL {
		t.Errorf("components sum to %v, RNL is %v", sum, r.RNL)
	}
	if len(a.pending) != 0 {
		t.Errorf("pending not drained: %d entries", len(a.pending))
	}
}

// TestAttributorTailReemit proves a go-back-N tail retransmission discards
// the aborted transmission's queue residencies: only hops of the tail
// emission that completed count.
func TestAttributorTailReemit(t *testing.T) {
	a := NewAttributor(nil)
	a.Issue(0, 0, 1)
	a.FirstEnqueue(1*sim.Microsecond, 0, 1)
	a.TailEmit(2*sim.Microsecond, 0, 1)
	a.TailHop(3*sim.Microsecond, 0, 1, 100*sim.Microsecond) // lost transmission
	a.TailEmit(60*sim.Microsecond, 0, 1)                    // retransmit
	a.TailHop(62*sim.Microsecond, 0, 1, 2*sim.Microsecond)
	a.TailHop(65*sim.Microsecond, 0, 1, 4*sim.Microsecond)
	a.Complete(1, 0, 1, 0, 70*sim.Microsecond)
	r := a.Records()[0]
	if r.NIC != 2*sim.Microsecond || r.Switch != 4*sim.Microsecond {
		t.Errorf("nic=%v switch=%v, want 2us and 4us (pre-retransmit hops dropped)", r.NIC, r.Switch)
	}
	if r.Transport != 59*sim.Microsecond {
		t.Errorf("transport = %v, want 59us (to the final tail emission)", r.Transport)
	}
}

// TestAttributorDegradedRecord covers systems that bypass the standard
// transport: no enqueue/emit instrumentation means the whole RNL lands in
// Wire.
func TestAttributorDegradedRecord(t *testing.T) {
	a := NewAttributor(nil)
	a.Issue(0, 1, 9)
	a.Complete(9, 1, 2, 1, 42*sim.Microsecond)
	r := a.Records()[0]
	if r.Wire != 42*sim.Microsecond {
		t.Errorf("wire=%v, want 42us", r.Wire)
	}
	if r.Admit != 0 || r.Sender != 0 || r.Transport != 0 || r.Pacing != 0 || r.NIC != 0 || r.Switch != 0 {
		t.Errorf("degraded record has non-zero transport components: %+v", r)
	}
}

func TestAttributorDropForgets(t *testing.T) {
	a := NewAttributor(nil)
	a.Issue(0, 0, 1)
	a.Drop(0, 1)
	// A completion for a dropped (or never-issued) RPC is ignored.
	a.Complete(1, 0, 1, 0, sim.Microsecond)
	a.Complete(2, 0, 1, 0, sim.Microsecond)
	if n := len(a.Records()); n != 0 {
		t.Errorf("records = %d, want 0", n)
	}
}

func TestAttributorSummaries(t *testing.T) {
	a := NewAttributor(nil)
	attrFill(a)
	// Second RPC on class 1 with a pure-wire profile.
	a.Issue(0, 0, 2)
	a.Complete(2, 0, 1, 1, 20*sim.Microsecond)
	sums := a.Summaries()
	if len(sums) != 2 || sums[0].Class != 0 || sums[1].Class != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].N != 1 || sums[0].TransportUS != 20 || sums[0].RNLUS != 50 {
		t.Errorf("class 0 summary = %+v", sums[0])
	}
	if sums[1].WireUS != 20 || sums[1].RNLUS != 20 {
		t.Errorf("class 1 summary = %+v", sums[1])
	}
}

func TestAttributorWriteCSV(t *testing.T) {
	a := NewAttributor(nil)
	attrFill(a)
	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 record", len(lines))
	}
	if lines[0] != AttrCSVHeader {
		t.Errorf("header = %q", lines[0])
	}
	want := "1,0,3,0,0.000000000,0,5,20,5,3,7,10,50"
	if lines[1] != want {
		t.Errorf("record = %q, want %q", lines[1], want)
	}
}

func TestNilAttributorSafe(t *testing.T) {
	var a *Attributor
	attrFill(a) // must not panic
	if a.Records() != nil || a.Summaries() != nil {
		t.Error("nil attributor not inert")
	}
	if err := a.WriteCSV(nil); err != nil {
		t.Error(err)
	}
}

// TestDisabledAttributorAllocs proves the acceptance criterion: the
// disabled attribution hot path performs zero allocations.
func TestDisabledAttributorAllocs(t *testing.T) {
	var a *Attributor
	allocs := testing.AllocsPerRun(1000, func() {
		attrFill(a)
	})
	if allocs != 0 {
		t.Errorf("disabled attributor: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkDisabledAttributor(b *testing.B) {
	var a *Attributor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.TailHop(sim.Time(i), 0, uint64(i), sim.Microsecond)
	}
}

func TestAuditorViolations(t *testing.T) {
	a := NewAuditor(AuditConfig{BoundUS: []float64{10}, SlackUS: 2})
	// Within bound+slack: no violation.
	a.Hop(0, 1, "up-0", 0, 12*sim.Microsecond)
	// Over: hop violations one past the retention cap. RPC 2 completing
	// after its over-bound hop adds no second violation.
	const over = maxViolations + 1
	for i := 0; i < over; i++ {
		a.Hop(sim.Microsecond, uint64(2+i), "down-1", 0, sim.Duration(13+i)*sim.Microsecond)
	}
	a.RPCDone(0, 13*sim.Microsecond, 20*sim.Microsecond)
	// Unbounded class: observed, never flagged.
	a.Hop(3*sim.Microsecond, 5, "down-2", 1, 500*sim.Microsecond)
	a.RPCDone(1, 500*sim.Microsecond, 600*sim.Microsecond)

	rep := a.Report()
	if rep.Ok() {
		t.Fatal("report Ok despite violations")
	}
	if rep.TotalViolations != over {
		t.Errorf("total = %d, want %d", rep.TotalViolations, over)
	}
	if len(rep.Violations) != maxViolations {
		t.Fatalf("retained = %d, want cap %d", len(rep.Violations), maxViolations)
	}
	v := rep.Violations[0]
	if v.RPC != 2 || v.Link != "down-1" || v.ObservedUS != 13 || v.BoundUS != 10 {
		t.Errorf("first violation = %+v", v)
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	c0 := rep.Classes[0]
	if !c0.Bounded || c0.BoundUS != 10 || c0.Violations != over || c0.Hops != over+1 || c0.MaxHopUS != 12+over {
		t.Errorf("class 0 = %+v", c0)
	}
	c1 := rep.Classes[1]
	if c1.Bounded || c1.Violations != 0 || c1.MaxHopUS != 500 {
		t.Errorf("class 1 = %+v", c1)
	}
}

// TestAuditorKeepsEarliest: a link checks a hop when it settles, after
// later violations may have been recorded; the retained list is still the
// earliest ones in time order.
func TestAuditorKeepsEarliest(t *testing.T) {
	a := NewAuditor(AuditConfig{BoundUS: []float64{10}})
	// Violation k is observed at (k·29 mod n)+1 µs by the RPC of that
	// number: every arrival order of early and late ones, two past the cap.
	const n = maxViolations + 2
	for k := 0; k < n; k++ {
		at := k*29%n + 1
		a.Hop(sim.Time(sim.Duration(at)*sim.Microsecond), uint64(at), "down-1", 0, 20*sim.Microsecond)
	}
	rep := a.Report()
	var got, want []uint64
	for _, v := range rep.Violations {
		got = append(got, v.RPC)
	}
	for id := uint64(1); id <= maxViolations; id++ {
		want = append(want, id)
	}
	if rep.TotalViolations != n || !slices.Equal(got, want) {
		t.Errorf("retained RPCs %v of %d violations, want %v of %d", got, rep.TotalViolations, want, n)
	}
}

// TestAuditorCountsTailHopOnce: the link checks the tail packet's
// residency and the attributor then completes the RPC, whose worst hop is
// that same residency. One over-bound residency is one violation.
func TestAuditorCountsTailHopOnce(t *testing.T) {
	aud := NewAuditor(AuditConfig{BoundUS: []float64{10}})
	a := NewAttributor(aud)
	a.Issue(0, 0, 1)
	a.FirstEnqueue(sim.Microsecond, 0, 1)
	a.TailEmit(2*sim.Microsecond, 0, 1)
	aud.Hop(22*sim.Microsecond, 1, "down-1", 0, 20*sim.Microsecond)
	a.TailHop(22*sim.Microsecond, 0, 1, 20*sim.Microsecond)
	a.Complete(1, 0, 1, 0, 30*sim.Microsecond)
	rep := aud.Report()
	if rep.TotalViolations != 1 || rep.Classes[0].Violations != 1 {
		t.Errorf("violations = %d (class 0: %d), want 1: %+v",
			rep.TotalViolations, rep.Classes[0].Violations, rep.Violations)
	}
}

func TestAuditorClean(t *testing.T) {
	a := NewAuditor(AuditConfig{BoundUS: []float64{10, 50}, SlackUS: 1})
	a.Hop(0, 1, "up-0", 0, 10*sim.Microsecond)
	a.RPCDone(0, 10*sim.Microsecond, 15*sim.Microsecond)
	rep := a.Report()
	if !rep.Ok() || rep.TotalViolations != 0 {
		t.Errorf("clean run flagged: %+v", rep)
	}
	if rep.Classes[0].N != 1 || rep.Classes[0].QueueMaxUS != 10 {
		t.Errorf("class 0 = %+v", rep.Classes[0])
	}
}

func TestNilAuditorSafe(t *testing.T) {
	var a *Auditor
	a.Hop(0, 1, "up-0", 0, sim.Microsecond)
	a.RPCDone(0, sim.Microsecond, sim.Microsecond)
	if a.Report() != nil {
		t.Error("nil auditor not inert")
	}
	if a.Report().Ok() {
		t.Error("nil report must not be Ok")
	}
}

// TestDisabledAuditorAllocs proves the disabled audit hot path performs
// zero allocations.
func TestDisabledAuditorAllocs(t *testing.T) {
	var a *Auditor
	allocs := testing.AllocsPerRun(1000, func() {
		a.Hop(0, 1, "up-0", 0, sim.Microsecond)
		a.RPCDone(0, sim.Microsecond, sim.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("disabled auditor: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkDisabledAuditor(b *testing.B) {
	var a *Auditor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Hop(sim.Time(i), uint64(i), "up-0", 0, sim.Microsecond)
	}
}

// BenchmarkEnabledAttributorRPC measures the full per-RPC attribution
// cycle with the free-list warm (steady state: no allocations).
func BenchmarkEnabledAttributorRPC(b *testing.B) {
	a := NewAttributor(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		attrFill(a)
		a.recs = a.recs[:0] // keep the record buffer from growing unboundedly
	}
}

// TestAttributorSrcKeyed: RPC ids are per-sender-stack counters, so two
// hosts' RPC #1 are different RPCs — instrumentation from one host must
// never contaminate the other's record.
func TestAttributorSrcKeyed(t *testing.T) {
	a := NewAttributor(nil)
	a.Issue(0, 0, 1)
	a.Issue(0, 1, 1) // same id, different source host
	a.FirstEnqueue(2*sim.Microsecond, 1, 1)
	a.TailEmit(4*sim.Microsecond, 1, 1)
	a.TailHop(5*sim.Microsecond, 1, 1, 3*sim.Microsecond)
	a.Complete(1, 0, 2, 0, 10*sim.Microsecond)
	r := a.Records()[0]
	if r.NIC != 0 || r.Transport != 0 || r.Wire != 10*sim.Microsecond {
		t.Errorf("host 0's record contaminated by host 1's instrumentation: %+v", r)
	}
	a.Complete(1, 1, 2, 0, 10*sim.Microsecond)
	if r := a.Records()[1]; r.NIC != 3*sim.Microsecond {
		t.Errorf("host 1's record = %+v", r)
	}
}

// TestAuditorLevelClamp: the fabric schedulers serve out-of-range classes
// from the lowest queue, so with Levels set the auditor must check such
// classes against the lowest class's bound instead of leaving them
// unbounded.
func TestAuditorLevelClamp(t *testing.T) {
	a := NewAuditor(AuditConfig{BoundUS: []float64{10, 20}, Levels: 2})
	a.Hop(0, 1, "up-0", 5, 30*sim.Microsecond) // class 5 → lowest level 1
	rep := a.Report()
	if len(rep.Classes) != 1 || rep.Classes[0].Class != 1 {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	if rep.TotalViolations != 1 {
		t.Errorf("violations = %d, want 1 (clamped class audited against the lowest bound)", rep.TotalViolations)
	}
}
