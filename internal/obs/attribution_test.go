package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"aequitas/internal/obs/flight"
	"aequitas/internal/sim"
)

// attrFill drives one synthetic RPC through every attribution event:
// 5 µs pacing stall before first enqueue at 10 µs, tail emitted at 30 µs,
// 3 µs NIC + 7 µs switch residency, completion at 50 µs with RNL 50 µs.
func attrFill(t *Tracer) {
	t.Issue(0, 1, 0, 3, 0, 0, 4096)
	t.PaceStall(0, 1, 5*sim.Microsecond)
	t.Enqueue(10*sim.Microsecond, 1, 0, 3, 0, 4096)
	t.TailEmit(30*sim.Microsecond, 0, 1)
	tailHop(t, 33*sim.Microsecond, 0, 1, 3*sim.Microsecond)
	tailHop(t, 40*sim.Microsecond, 0, 1, 7*sim.Microsecond)
	t.Complete(50*sim.Microsecond, 1, 0, 3, 0, 4096, 50*sim.Microsecond)
}

// attrTracer returns a tracer feeding only an attributor.
func attrTracer() *Tracer { return NewTracer(Sinks{Attr: NewAttributor()}) }

// auditTracer returns a tracer feeding only an auditor configured by cfg.
func auditTracer(cfg AuditConfig) *Tracer { return NewTracer(Sinks{Audit: NewAuditor(cfg)}) }

// tailHop reports a class-0 hop of the tail packet of src's RPC rpc.
func tailHop(t *Tracer, now sim.Time, src int, rpc uint64, resid sim.Duration) {
	t.Hop(now, src, rpc, true, "h0-up", 0, 1500, resid, 0)
}

// hop reports a hop of a data packet, its tail packet or another, of host
// 0's RPC rpc.
func hop(t *Tracer, now sim.Time, rpc uint64, tail bool, link string, class int, resid sim.Duration) {
	t.Hop(now, 0, rpc, tail, link, class, 1500, resid, 0)
}

func TestAttributorDecomposition(t *testing.T) {
	tr := attrTracer()
	attrFill(tr)
	recs := tr.Attr.Records()
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
	if n := tr.InFlight(); n != 0 {
		t.Errorf("state not drained: %d entries", n)
	}
}

// TestAttributorTailReemit proves a go-back-N tail retransmission discards
// the aborted transmission's queue residencies: only hops of the tail
// emission that completed count.
func TestAttributorTailReemit(t *testing.T) {
	tr := attrTracer()
	tr.Issue(0, 1, 0, 1, 0, 0, 4096)
	tr.Enqueue(1*sim.Microsecond, 1, 0, 1, 0, 4096)
	tr.TailEmit(2*sim.Microsecond, 0, 1)
	tailHop(tr, 3*sim.Microsecond, 0, 1, 100*sim.Microsecond) // lost transmission
	tr.TailEmit(60*sim.Microsecond, 0, 1)                     // retransmit
	tr.Enqueue(60*sim.Microsecond, 1, 0, 1, 0, 4096)          // a retry's first packet stamps nothing
	tailHop(tr, 62*sim.Microsecond, 0, 1, 2*sim.Microsecond)
	tailHop(tr, 65*sim.Microsecond, 0, 1, 4*sim.Microsecond)
	tr.Complete(70*sim.Microsecond, 1, 0, 1, 0, 4096, 70*sim.Microsecond)
	r := tr.Attr.Records()[0]
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
	tr := attrTracer()
	tr.Issue(0, 9, 1, 2, 1, 1, 4096)
	tr.Complete(42*sim.Microsecond, 9, 1, 2, 1, 4096, 42*sim.Microsecond)
	r := tr.Attr.Records()[0]
	if r.Wire != 42*sim.Microsecond {
		t.Errorf("wire=%v, want 42us", r.Wire)
	}
	if r.Admit != 0 || r.Sender != 0 || r.Transport != 0 || r.Pacing != 0 || r.NIC != 0 || r.Switch != 0 {
		t.Errorf("degraded record has non-zero transport components: %+v", r)
	}
}

// TestAttributorDropForgets: an RPC dropped at admission or lost is
// forgotten, and a completion for it (or for a never-issued RPC) is
// ignored.
func TestAttributorDropForgets(t *testing.T) {
	tr := attrTracer()
	tr.Issue(0, 1, 0, 1, 0, 0, 4096)
	tr.Admit(0, 1, 0, 1, 0, flight.VerdictDrop, 0.5)
	tr.Issue(0, 2, 0, 1, 0, 0, 4096)
	tr.Lost(0, 2)
	for rpc := uint64(1); rpc <= 3; rpc++ {
		tr.Complete(sim.Microsecond, rpc, 0, 1, 0, 4096, sim.Microsecond)
	}
	if n, m := len(tr.Attr.Records()), tr.InFlight(); n != 0 || m != 0 {
		t.Errorf("records = %d and %d in flight, want 0 and 0", n, m)
	}
}

func TestAttributorSummaries(t *testing.T) {
	tr := attrTracer()
	attrFill(tr)
	// Second RPC on class 1 with a pure-wire profile.
	tr.Issue(0, 2, 0, 1, 0, 1, 4096)
	tr.Complete(20*sim.Microsecond, 2, 0, 1, 1, 4096, 20*sim.Microsecond)
	sums := tr.Attr.Summaries()
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
	tr := attrTracer()
	attrFill(tr)
	var buf bytes.Buffer
	if err := tr.Attr.WriteCSV(&buf); err != nil {
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

func TestAuditorViolations(t *testing.T) {
	tr := auditTracer(AuditConfig{BoundUS: []float64{10}, SlackUS: 2})
	tr.Issue(0, 2, 0, 1, 0, 0, 1500)
	tr.Issue(0, 5, 0, 1, 0, 1, 1500)
	// Within bound+slack: no violation.
	hop(tr, 0, 1, false, "up-0", 0, 12*sim.Microsecond)
	// Over: hop violations one past the retention cap. RPC 2 completing
	// after its tail packet's over-bound hop adds no second violation.
	const over = maxViolations + 1
	for i := 0; i < over; i++ {
		hop(tr, sim.Microsecond, uint64(2+i), i == 0, "down-1", 0, sim.Duration(13+i)*sim.Microsecond)
	}
	tr.Complete(2*sim.Microsecond, 2, 0, 1, 0, 1500, 20*sim.Microsecond)
	// Unbounded class: observed, never flagged.
	hop(tr, 3*sim.Microsecond, 5, true, "down-2", 1, 500*sim.Microsecond)
	tr.Complete(4*sim.Microsecond, 5, 0, 1, 1, 1500, 600*sim.Microsecond)

	rep := tr.Audit.Report()
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
	if c1.Bounded || c1.Violations != 0 || c1.MaxHopUS != 500 || c1.N != 1 || c1.QueueMaxUS != 500 || c1.RNLMaxUS != 600 {
		t.Errorf("class 1 = %+v", c1)
	}
}

// TestAuditorKeepsEarliest: a link checks a hop when it settles, after
// later violations may have been recorded; the retained list is still the
// earliest ones in time order.
func TestAuditorKeepsEarliest(t *testing.T) {
	tr := auditTracer(AuditConfig{BoundUS: []float64{10}})
	// Violation k is observed at (k·29 mod n)+1 µs by the RPC of that
	// number: every arrival order of early and late ones, two past the cap.
	const n = maxViolations + 2
	for k := 0; k < n; k++ {
		at := k*29%n + 1
		hop(tr, sim.Time(sim.Duration(at)*sim.Microsecond), uint64(at), false, "down-1", 0, 20*sim.Microsecond)
	}
	rep := tr.Audit.Report()
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

// TestAuditorCountsTailHopOnce: the tracer checks the tail packet's
// residency and charges it to the RPC, which then completes with that
// residency as its worst hop. One over-bound residency is one violation.
func TestAuditorCountsTailHopOnce(t *testing.T) {
	tr := NewTracer(Sinks{Attr: NewAttributor(), Audit: NewAuditor(AuditConfig{BoundUS: []float64{10}})})
	tr.Issue(0, 1, 0, 1, 0, 0, 1500)
	tr.Enqueue(sim.Microsecond, 1, 0, 1, 0, 1500)
	tr.TailEmit(2*sim.Microsecond, 0, 1)
	hop(tr, 22*sim.Microsecond, 1, true, "down-1", 0, 20*sim.Microsecond)
	tr.Complete(30*sim.Microsecond, 1, 0, 1, 0, 1500, 30*sim.Microsecond)
	rep := tr.Audit.Report()
	if rep.TotalViolations != 1 || rep.Classes[0].Violations != 1 {
		t.Errorf("violations = %d (class 0: %d), want 1: %+v",
			rep.TotalViolations, rep.Classes[0].Violations, rep.Violations)
	}
}

func TestAuditorClean(t *testing.T) {
	tr := auditTracer(AuditConfig{BoundUS: []float64{10, 50}, SlackUS: 1})
	tr.Issue(0, 1, 0, 1, 0, 0, 1500)
	hop(tr, 0, 1, true, "up-0", 0, 10*sim.Microsecond)
	tr.Complete(15*sim.Microsecond, 1, 0, 1, 0, 1500, 15*sim.Microsecond)
	rep := tr.Audit.Report()
	if !rep.Ok() || rep.TotalViolations != 0 {
		t.Errorf("clean run flagged: %+v", rep)
	}
	if rep.Classes[0].N != 1 || rep.Classes[0].QueueMaxUS != 10 {
		t.Errorf("class 0 = %+v", rep.Classes[0])
	}
	// A run without the auditor reports nil, and nil is not Ok.
	if none := (*Auditor)(nil); none.Report() != nil || none.Report().Ok() {
		t.Error("nil auditor reported")
	}
}

// BenchmarkEnabledAttributorRPC measures the full per-RPC attribution
// cycle with the free-list warm (steady state: no allocations).
func BenchmarkEnabledAttributorRPC(b *testing.B) {
	tr := attrTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		attrFill(tr)
		tr.Attr.recs = tr.Attr.recs[:0] // keep the record buffer from growing unboundedly
	}
}

// TestAttributorSrcKeyed: RPC ids are per-sender-stack counters, so two
// hosts' RPC #1 are different RPCs — instrumentation from one host must
// never contaminate the other's record.
func TestAttributorSrcKeyed(t *testing.T) {
	tr := attrTracer()
	tr.Issue(0, 1, 0, 2, 0, 0, 4096)
	tr.Issue(0, 1, 1, 2, 0, 0, 4096) // same id, different source host
	tr.Enqueue(2*sim.Microsecond, 1, 1, 2, 0, 4096)
	tr.TailEmit(4*sim.Microsecond, 1, 1)
	tailHop(tr, 5*sim.Microsecond, 1, 1, 3*sim.Microsecond)
	tr.Complete(10*sim.Microsecond, 1, 0, 2, 0, 4096, 10*sim.Microsecond)
	r := tr.Attr.Records()[0]
	if r.NIC != 0 || r.Transport != 0 || r.Wire != 10*sim.Microsecond {
		t.Errorf("host 0's record contaminated by host 1's instrumentation: %+v", r)
	}
	tr.Complete(10*sim.Microsecond, 1, 1, 2, 0, 4096, 10*sim.Microsecond)
	if r := tr.Attr.Records()[1]; r.NIC != 3*sim.Microsecond {
		t.Errorf("host 1's record = %+v", r)
	}
}

// TestAuditorLevelClamp: the fabric schedulers serve out-of-range classes
// from the lowest queue, so with Levels set the auditor must check such
// classes against the lowest class's bound instead of leaving them
// unbounded.
func TestAuditorLevelClamp(t *testing.T) {
	tr := auditTracer(AuditConfig{BoundUS: []float64{10, 20}, Levels: 2})
	hop(tr, 0, 1, false, "up-0", 5, 30*sim.Microsecond) // class 5 → lowest level 1
	rep := tr.Audit.Report()
	if len(rep.Classes) != 1 || rep.Classes[0].Class != 1 {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	if rep.TotalViolations != 1 {
		t.Errorf("violations = %d, want 1 (clamped class audited against the lowest bound)", rep.TotalViolations)
	}
}
