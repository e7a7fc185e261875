package flight

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"aequitas/internal/sim"
)

// put writes rec on stripe p of r, sampled as the public method of its
// kind samples it.
func put(r *Ring, p int, rec Record) {
	sampled := rec.Quota == QuotaNone && (rec.Verdict == VerdictAdmit || rec.Verdict == VerdictSLOMet)
	if sh := r.offer(p, rec.Src, rec.Peer, rec.Requested, sampled); sh != nil {
		r.push(sh, rec)
	}
}

// keepAll disables sampling so tests can count records exactly.
func keepAll() Config { return Config{Records: 1 << 12, SampleAdmits: 1} }

func TestNilRingNoOps(t *testing.T) {
	var r *Ring
	r.Decision(0, 0, 0, 0, 0, VerdictAdmit, 1, 1)
	r.Complete(0, 0, 0, 0, VerdictSLOMiss, 0.5, 1, 10)
	r.QuotaBypassDecision(0, 0, 0, 0, 1)
	if got := r.Snapshot(true); got != nil {
		t.Fatalf("nil ring snapshot = %v, want nil", got)
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("nil ring stats = %+v, want zero", st)
	}
	if r.Cap() != 0 {
		t.Fatalf("nil ring cap = %d", r.Cap())
	}
}

func TestRingRecordsAndSnapshotOrder(t *testing.T) {
	r := NewRing(keepAll())
	// Record out of timestamp order across channels; the snapshot must
	// come back time-sorted.
	r.Decision(3*sim.Microsecond, 0, 2, 0, 0, VerdictAdmit, 0.9, 1)
	r.Decision(1*sim.Microsecond, 0, 1, 0, 2, VerdictDowngrade, 0.3, 1)
	r.Complete(2*sim.Microsecond, 0, 1, 0, VerdictSLOMiss, 0.29, 1, 42.5)
	recs := r.Snapshot(false)
	if len(recs) != 3 {
		t.Fatalf("snapshot has %d records, want 3", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].TS < recs[i-1].TS {
			t.Fatalf("snapshot out of order at %d: %v before %v", i, recs[i].TS, recs[i-1].TS)
		}
	}
	if recs[0].Verdict != VerdictDowngrade || recs[1].Verdict != VerdictSLOMiss || recs[2].Verdict != VerdictAdmit {
		t.Fatalf("unexpected verdict order: %v %v %v", recs[0].Verdict, recs[1].Verdict, recs[2].Verdict)
	}
	if recs[1].LatencyUS != 42.5 {
		t.Fatalf("completion latency = %v, want 42.5", recs[1].LatencyUS)
	}
	// Snapshot(false) preserves the ring.
	if again := r.Snapshot(false); len(again) != 3 {
		t.Fatalf("second snapshot has %d records, want 3", len(again))
	}
	// Snapshot(true) resets it.
	if _ = r.Snapshot(true); len(r.Snapshot(false)) != 0 {
		t.Fatal("ring not empty after reset snapshot")
	}
	st := r.Stats()
	if st.Offered != 3 || st.SampledOut != 0 {
		t.Fatalf("stats = %+v, want 3 offered, 0 sampled", st)
	}
}

// TestSetDumpsAsOneRing writes records into chosen stripes of a
// four-stripe ring and dumps it: the bytes must be those of a one-stripe
// ring that kept the same records. Two pairs share a timestamp and differ
// only in Class, or only in Quota; the striped ring gathers each pair in
// the opposite order, so the dump order must come from the records
// alone.
func TestSetDumpsAsOneRing(t *testing.T) {
	one, striped := NewRing(keepAll()), NewRing(Config{Records: 1 << 12, SampleAdmits: 1, Stripes: 4})
	if striped.Cap() != one.Cap() {
		t.Fatalf("four stripes hold %d records, one %d", striped.Cap(), one.Cap())
	}
	type placed struct {
		rec    Record
		stripe int
	}
	var recs []placed
	for i := 0; i < 100; i++ {
		ts, peer := sim.Time(i)*sim.Microsecond, int32(i%5)
		rec := Record{TS: ts, PAdmit: 0.9, Peer: peer, SizeMTUs: 1, Class: int8(i % 2), Kind: KindDecision, Verdict: VerdictAdmit}
		if i%3 == 0 {
			rec = Record{TS: ts, PAdmit: 0.5, LatencyUS: float64(i), Peer: peer, SizeMTUs: 2,
				Requested: 1, Class: 1, Kind: KindComplete, Verdict: VerdictSLOMiss}
		}
		recs = append(recs, placed{rec, i})
	}
	pair := Record{TS: 200 * sim.Microsecond, PAdmit: 1, Peer: 7, SizeMTUs: 1, Kind: KindDecision, Verdict: VerdictAdmit}
	classed, bypass := pair, pair
	classed.Class, bypass.Quota = 2, QuotaBypass
	recs = append(recs, placed{pair, 3}, placed{classed, 0}, placed{pair, 3}, placed{bypass, 0})
	for _, p := range recs {
		put(one, 0, p.rec)
		put(striped, p.stripe, p.rec)
	}
	meta := Meta{Trigger: Trigger{Kind: TriggerManual, At: 300 * sim.Microsecond}, Label: "stripes"}
	var want, got bytes.Buffer
	if err := one.Dump(&want, meta, false); err != nil {
		t.Fatal(err)
	}
	if err := striped.Dump(&got, meta, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("striped dump differs from one stripe's:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

// TestRingCapMatchesRingSets pins a striped ring's capacity at what a set
// of that many rings, each built from Records/Stripes, held: stripes
// round down to a power of two (3 is 2), and each of a stripe's eight
// shards holds a power of two, at least one record.
func TestRingCapMatchesRingSets(t *testing.T) {
	for _, c := range []struct{ records, stripes, want int }{
		{0, 0, 16384}, {0, 4, 16384}, {1, 1, 8}, {1, 2, 16}, {1, 3, 16},
		{7, 4, 32}, {8, 8, 64}, {15, 2, 16}, {15, 3, 16}, {23, 3, 32},
		{23, 8, 64}, {100, 3, 128}, {1000, 5, 1024}, {16384, 3, 16384}, {1 << 16, 4, 1 << 16},
	} {
		if got := NewRing(Config{Records: c.records, Stripes: c.stripes}).Cap(); got != c.want {
			t.Errorf("Records %d, Stripes %d: Cap %d, want %d", c.records, c.stripes, got, c.want)
		}
	}
}

// TestRingWrapKeepsLatest writes ten laps of records over one peer per
// shard in turn, so every shard wraps alike and the newest Cap() records
// overall are each shard's newest: exactly those must survive.
func TestRingWrapKeepsLatest(t *testing.T) {
	r := NewRing(Config{Records: 64, SampleAdmits: 1})
	var peers []int32
	taken := map[*shard]bool{}
	for p := int32(0); len(peers) < ringShards; p++ {
		if sh := r.shardFor(0, 0, p, 0); !taken[sh] {
			taken[sh] = true
			peers = append(peers, p)
		}
	}
	n := 10 * r.Cap()
	for i := 0; i < n; i++ {
		r.Decision(sim.Time(i)*sim.Microsecond, 0, peers[i%ringShards], 0, 0, VerdictAdmit, 1, 1)
	}
	recs := r.Snapshot(false)
	if len(recs) != r.Cap() {
		t.Fatalf("wrapped ring holds %d records, want %d", len(recs), r.Cap())
	}
	for i, rec := range recs {
		if want := sim.Time(n-r.Cap()+i) * sim.Microsecond; rec.TS != want {
			t.Fatalf("surviving record %d at %v, want %v", i, rec.TS, want)
		}
	}
}

func TestAdaptiveSamplingKeepsAnomalies(t *testing.T) {
	r := NewRing(Config{Records: 1 << 16, SampleAdmits: 8})
	const n = 4096
	for i := 0; i < n; i++ {
		r.Decision(sim.Time(i), 0, int32(i%7), 0, 0, VerdictAdmit, 1, 1)
		r.Decision(sim.Time(i), 0, int32(i%7), 0, 2, VerdictDowngrade, 0.2, 1)
		r.Complete(sim.Time(i), 0, int32(i%7), 0, VerdictSLOMiss, 0.19, 1, 99)
	}
	recs := r.Snapshot(false)
	var admits, downs, misses int
	for _, rec := range recs {
		switch rec.Verdict {
		case VerdictAdmit:
			admits++
		case VerdictDowngrade:
			downs++
		case VerdictSLOMiss:
			misses++
		}
	}
	if downs != n || misses != n {
		t.Fatalf("anomalous records sampled out: %d downgrades, %d misses, want %d each", downs, misses, n)
	}
	if admits == 0 || admits >= n/2 {
		t.Fatalf("admit sampling kept %d of %d, want roughly 1 in 8", admits, n)
	}
	st := r.Stats()
	if st.SampledOut != uint64(n-admits) {
		t.Fatalf("sampled_out = %d, want %d", st.SampledOut, n-admits)
	}
	if st.Offered != 3*n {
		t.Fatalf("offered = %d, want %d", st.Offered, 3*n)
	}
}

func TestSamplingDeterministic(t *testing.T) {
	run := func() []Record {
		r := NewRing(Config{Records: 1 << 12, SampleAdmits: 8})
		for i := 0; i < 1000; i++ {
			r.Decision(sim.Time(i), 1, int32(i%5), 0, 0, VerdictAdmit, 0.8, 1)
		}
		return r.Snapshot(false)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs kept %d vs %d records", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs across identical runs", i)
		}
	}
}

func TestQuotaBypassAlwaysKept(t *testing.T) {
	r := NewRing(Config{Records: 1 << 12, SampleAdmits: 1 << 30})
	for i := 0; i < 100; i++ {
		r.QuotaBypassDecision(sim.Time(i), 0, 3, 0, 1)
	}
	recs := r.Snapshot(false)
	if len(recs) != 100 {
		t.Fatalf("kept %d quota bypass records, want 100", len(recs))
	}
	for _, rec := range recs {
		if rec.Quota != QuotaBypass || rec.Verdict != VerdictAdmit {
			t.Fatalf("quota record = %+v", rec)
		}
	}
}

// TestRecordPathNoAllocs pins the tentpole's core budget: recording a
// decision or completion allocates nothing.
func TestRecordPathNoAllocs(t *testing.T) {
	r := NewRing(Config{Records: 1 << 14})
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		r.Decision(sim.Time(i), 0, int32(i&7), 0, 0, VerdictAdmit, 1, 1)
		r.Complete(sim.Time(i), 0, int32(i&7), 0, VerdictSLOMiss, 0.5, 1, 10)
		i++
	}); n != 0 {
		t.Fatalf("record path allocates %v per op, want 0", n)
	}
}

// BenchmarkRingRecord times the record path from parallel goroutines: a
// kept downgrade and a sampled-out admit, on one stripe and on one stripe
// per P, and a kept downgrade while another goroutine takes resetting
// snapshots throughout. lost/op counts the records offered, not sampled
// out and never written to a slot.
func BenchmarkRingRecord(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		name     string
		stripes  int
		verdict  Verdict
		snapshot bool
	}{
		{"stripes=1/downgrade", 1, VerdictDowngrade, false},
		{"stripes=1/admit", 1, VerdictAdmit, false},
		{"stripes=P/downgrade", procs, VerdictDowngrade, false},
		{"stripes=P/admit", procs, VerdictAdmit, false},
		{"stripes=P/downgrade/snapshots", procs, VerdictDowngrade, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := NewRing(Config{Stripes: c.stripes})
			got := int8(0)
			if c.verdict == VerdictDowngrade {
				got = 2
			}
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stopped)
				for c.snapshot {
					select {
					case <-stop:
						return
					default:
						r.Snapshot(true)
					}
				}
			}()
			var writers atomic.Int32
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				src := writers.Add(1)
				for i := int32(0); pb.Next(); i++ {
					r.Decision(sim.Time(i), src, i&63, 0, got, c.verdict, 0.5, 1)
				}
			})
			b.StopTimer()
			close(stop)
			<-stopped
			st := r.Stats()
			lost := st.Offered - st.SampledOut
			for i := range r.shards {
				lost -= r.shards[i].seq.Load()
			}
			b.ReportMetric(float64(lost)/float64(b.N), "lost/op")
		})
	}
}

// TestShardLayout: a shard fills two whole cache lines, its counters the
// first and its slice headers the second, so the headers a push reads
// never share a line with the neighbouring shard's counters.
func TestShardLayout(t *testing.T) {
	if size, recs := unsafe.Sizeof(shard{}), unsafe.Offsetof(shard{}.recs); size != 128 || recs != 64 {
		t.Errorf("shard is %d bytes with recs at offset %d, want 128 and 64", size, recs)
	}
}

// TestRingConcurrent records from eight goroutines, half of the records
// subject to sampling, while a ninth snapshots the ring, resetting it on
// every other snapshot, at 1-in-1 and 1-in-8 sampling: every record
// offered is sampled out or returned by exactly one resetting snapshot
// (the last one included). The ring is sized far above the written
// volume, so no writer laps another.
func TestRingConcurrent(t *testing.T) {
	for _, sample := range []int{1, 8} {
		r := NewRing(Config{Records: 1 << 16, SampleAdmits: sample})
		const writers = 8
		const perWriter = 2000
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					v := VerdictDowngrade
					if i%2 == 0 {
						v = VerdictAdmit
					}
					r.Decision(sim.Time(i), int32(w), int32(i%9), 0, 0, v, 0.4, 1)
					if i%3 == 0 {
						r.Complete(sim.Time(i), int32(w), int32(i%9), 0, VerdictSLOMet+Verdict(i%2), 0.39, 1, 5)
					}
				}
			}(w)
		}
		var kept int
		snapped := make(chan struct{})
		go func() {
			defer close(snapped)
			for i := 0; i < 50; i++ {
				if recs := r.Snapshot(i%2 == 0); i%2 == 0 {
					kept += len(recs)
				}
			}
		}()
		wg.Wait()
		<-snapped
		kept += len(r.Snapshot(true))
		st := r.Stats()
		want := uint64(writers * (perWriter + (perWriter+2)/3))
		if st.Offered != want {
			t.Fatalf("1 in %d: offered = %d, want %d", sample, st.Offered, want)
		}
		if uint64(kept)+st.SampledOut != want {
			t.Fatalf("1 in %d: %d records kept + %d sampled out != %d offered", sample, kept, st.SampledOut, want)
		}
		if (st.SampledOut == 0) != (sample == 1) {
			t.Fatalf("1-in-%d sampling skipped %d records", sample, st.SampledOut)
		}
	}
}

// counted is the record a writer in TestRingConcurrentSnapshots writes for
// counter v: every field is a function of v, so a record that mixes two
// writes shows it.
func counted(v uint64) Record {
	return Record{TS: sim.Time(v), PAdmit: float64(v%1024) / 1024, LatencyUS: float64(v), Src: int32(v >> 32),
		Peer: int32(v % 9), SizeMTUs: int32(v), Requested: int8(v % 3), Class: int8(v % 3),
		Kind: KindComplete, Verdict: VerdictSLOMiss}
}

// TestRingConcurrentSnapshots runs snapshots against each other and
// against writers that lap a small ring many times over, as
// /debug/flight can be hit from several HTTP requests while the anomaly
// engine fires: every record a snapshot returns must be one a writer
// wrote, never a slot copied while a lapping writer rewrote it.
func TestRingConcurrentSnapshots(t *testing.T) {
	r := NewRing(Config{Records: 1 << 8, SampleAdmits: 1})
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := counted(uint64(w)<<32 | i)
				r.Complete(rec.TS, rec.Src, rec.Peer, rec.Class, rec.Verdict, rec.PAdmit, rec.SizeMTUs, rec.LatencyUS)
			}
		}(w)
	}
	var sg sync.WaitGroup
	for s := 0; s < 4; s++ {
		sg.Add(1)
		go func(s int) {
			defer sg.Done()
			for i := 0; i < 100; i++ {
				for _, rec := range r.Snapshot(s%2 == 0) {
					if want := counted(uint64(rec.TS)); rec != want {
						t.Errorf("torn record %+v, written as %+v", rec, want)
						return
					}
				}
			}
		}(s)
	}
	sg.Wait()
	close(stop)
	wg.Wait()
	if got, c := len(r.Snapshot(false)), r.Cap(); got > c {
		t.Fatalf("quiescent snapshot holds %d records, capacity %d", got, c)
	}
}

// TestSnapshotReadsByCommit drives the reader through the two slot states
// only a concurrent writer produces. A slot claimed before the cut but
// not yet written is waited for, while writers to other slots go on, and
// then returned. A slot that a lapping writer takes during the copy is
// skipped.
func TestSnapshotReadsByCommit(t *testing.T) {
	r := NewRing(Config{Records: ringShards, SampleAdmits: 1}) // one slot per shard
	rec := Record{TS: 1, PAdmit: 0.5, Peer: 3, SizeMTUs: 1, Class: 2, Kind: KindDecision, Verdict: VerdictDowngrade}
	sh := r.shardFor(0, rec.Src, rec.Peer, rec.Requested)
	seq := sh.seq.Add(1) - 1
	sh.commit[0].Store(busy(seq))
	got := make(chan []Record)
	go func() { got <- r.Snapshot(true) }()
	other := rec
	for other.Peer++; r.shardFor(0, other.Src, other.Peer, other.Requested) == sh; other.Peer++ {
	}
	select {
	case recs := <-got:
		t.Fatalf("snapshot returned %+v before the claimed slot was written", recs)
	case <-time.After(20 * time.Millisecond):
	}
	put(r, 0, other) // a writer on another shard does not wait for the snapshot
	sh.recs[0] = rec
	sh.commit[0].Store(done(seq))
	if recs := <-got; !slices.Contains(recs, rec) {
		t.Fatalf("snapshot %+v misses the record written after its cut", recs)
	}

	put(r, 0, rec)
	next := rec
	next.TS = 2
	lapping := func(src *Record) Record {
		copied := *src
		put(r, 0, next)
		return copied
	}
	if copied, ok := r.read(sh, seq+1, lapping); ok {
		t.Fatalf("kept %+v, copied while the next lap took its slot", copied)
	}
	if recs := r.Snapshot(false); !slices.Contains(recs, next) || slices.Contains(recs, rec) {
		t.Fatalf("snapshot after the lap holds %+v, want the lapping record only", recs)
	}
}

func TestDumpWriteValidateRoundTrip(t *testing.T) {
	r := NewRing(keepAll())
	r.Decision(1*sim.Microsecond, 0, 1, 0, 0, VerdictAdmit, 0.95, 1)
	r.Decision(2*sim.Microsecond, 0, 1, 0, 2, VerdictDowngrade, 0.3, 4)
	r.Complete(3*sim.Microsecond, 0, 1, 0, VerdictSLOMiss, 0.29, 4, 123.4)
	r.QuotaBypassDecision(4*sim.Microsecond, 0, 2, 1, 2)

	var buf bytes.Buffer
	meta := Meta{
		Trigger:  Trigger{Kind: TriggerBurnRate, At: 5 * sim.Microsecond, Detail: "test"},
		Label:    "unit",
		PeerName: func(p int32) string { return map[int32]string{1: "checkout"}[p] },
	}
	if err := r.Dump(&buf, meta, true); err != nil {
		t.Fatal(err)
	}
	// Second dump on the same stream, post-reset.
	r.Complete(6*sim.Microsecond, 0, 2, 1, VerdictSLOMet, 1, 1, 7)
	if err := r.Dump(&buf, Meta{Trigger: Trigger{Kind: TriggerFinal, At: 7 * sim.Microsecond}}, false); err != nil {
		t.Fatal(err)
	}

	dumps, records, err := ValidateDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, buf.String())
	}
	if dumps != 2 || records != 5 {
		t.Fatalf("validated %d dumps / %d records, want 2 / 5", dumps, records)
	}
	if !strings.Contains(buf.String(), `"peer_name":"checkout"`) {
		t.Fatal("peer name not resolved in dump")
	}
	if !strings.Contains(buf.String(), `"quota":"bypass"`) {
		t.Fatal("quota bypass not marked in dump")
	}

	sum, err := Summarize(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Dumps) != 2 || sum.Records != 5 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.ByVerdict["downgrade"] != 1 || sum.ByVerdict["slo_miss"] != 1 || sum.ByVerdict["admit"] != 2 {
		t.Fatalf("verdict totals = %v", sum.ByVerdict)
	}
	if sum.MinPAdmit != 0.29 {
		t.Fatalf("min p_admit = %v, want 0.29", sum.MinPAdmit)
	}
	if sum.MaxLatUS != 123.4 {
		t.Fatalf("max lat = %v, want 123.4", sum.MaxLatUS)
	}
}

// TestDumpPeerNameIsJSON writes a dump whose peer name and trigger detail
// carry a control byte and a byte that is not UTF-8, as a peer name taken
// from a request path can: the dump must read back, with the control byte
// escaped and the bad byte as U+FFFD.
func TestDumpPeerNameIsJSON(t *testing.T) {
	const peer = "a\x01b\xff"
	r := NewRing(keepAll())
	r.Decision(1*sim.Microsecond, 0, 1, 0, 0, VerdictAdmit, 0.5, 1)
	var buf bytes.Buffer
	meta := Meta{
		Trigger:  Trigger{Kind: TriggerManual, At: 2 * sim.Microsecond, Detail: "peer " + peer},
		Label:    peer,
		PeerName: func(int32) string { return peer },
	}
	if err := r.Dump(&buf, meta, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ValidateDump(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("validate: %v\n%s", err, buf.String())
	}
	sum, err := Summarize(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := "peer a\x01b\uFFFD"; sum.Dumps[0].Detail != want {
		t.Errorf("detail %q, want %q", sum.Dumps[0].Detail, want)
	}
	if !strings.Contains(buf.String(), `"peer_name":"a\u0001b`+"\uFFFD\"") {
		t.Errorf("peer name not escaped as JSON:\n%s", buf.String())
	}
}

// TestAppendJSONString pins the string encoder: printable ASCII as
// strconv.Quote has it, control bytes as \u00XX, runs of bytes that are
// not UTF-8 as one U+FFFD each, and no allocation into a buffer with
// room.
func TestAppendJSONString(t *testing.T) {
	for in, want := range map[string]string{
		"":                   `""`,
		`plain "q" \ /`:      `"plain \"q\" \\ /"`,
		"\t\n\r\x00\x1f\x7f": `"\u0009\u000a\u000d\u0000\u001f` + "\x7f" + `"`,
		"é✓\U0001F600":       "\"é✓\U0001F600\"",
		"a\xff\xfeb\xffc":    "\"a\uFFFDb\uFFFDc\"",
		"\xed\xa0\x80":       "\"\uFFFD\"",
	} {
		if got := string(AppendJSONString(nil, in)); got != want {
			t.Errorf("%q: %s, want %s", in, got, want)
		}
		var back string
		if err := json.Unmarshal(AppendJSONString(nil, in), &back); err != nil || back != strings.ToValidUTF8(in, "\uFFFD") {
			t.Errorf("%q reads back as %q (%v)", in, back, err)
		}
	}
	for _, in := range []string{"admit", "link up-0", "burn 2.0x/1.5x over 1ms/5ms (budget 0.001, threshold 2x)"} {
		if got, want := string(AppendJSONString(nil, in)), strconv.Quote(in); got != want {
			t.Errorf("%q: %s, strconv.Quote writes %s", in, got, want)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = AppendJSONString(buf[:0], "a\x01b\xff") }); n != 0 {
		t.Errorf("%v allocations per string", n)
	}
}

func TestValidateDumpRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"wrong schema": `{"schema":"nope","trigger":"final","ts_us":0,"records":0,"offered":0,"sampled_out":0,"dropped_frozen":0}`,
		"bad trigger":  `{"schema":"aequitas.flight/v1","trigger":"gremlin","ts_us":0,"records":0,"offered":0,"sampled_out":0,"dropped_frozen":0}`,
		"truncated": `{"schema":"aequitas.flight/v1","trigger":"final","ts_us":0,"records":2,"offered":2,"sampled_out":0,"dropped_frozen":0}
{"seq":0,"ts_us":1,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}`,
		"retention violated": `{"schema":"aequitas.flight/v1","trigger":"final","ts_us":0,"records":1,"offered":0,"sampled_out":0,"dropped_frozen":0}
{"seq":0,"ts_us":1,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}`,
		"time travel": `{"schema":"aequitas.flight/v1","trigger":"final","ts_us":0,"records":2,"offered":2,"sampled_out":0,"dropped_frozen":0}
{"seq":0,"ts_us":5,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}
{"seq":1,"ts_us":4,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}`,
		"mixed verdict": `{"schema":"aequitas.flight/v1","trigger":"final","ts_us":0,"records":1,"offered":1,"sampled_out":0,"dropped_frozen":0}
{"seq":0,"ts_us":1,"kind":"decision","verdict":"slo_miss","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}`,
		"bad probability": `{"schema":"aequitas.flight/v1","trigger":"final","ts_us":0,"records":1,"offered":1,"sampled_out":0,"dropped_frozen":0}
{"seq":0,"ts_us":1,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1.5,"size_mtus":1}`,

		"sampled_out -10": `{"schema":"aequitas.flight/v1","trigger":"final","ts_us":0,"records":0,"offered":0,"sampled_out":-10,"dropped_frozen":0}`,
		"offered 2.5": `{"schema":"aequitas.flight/v1","trigger":"final","ts_us":0,"records":1,"offered":2.5,"sampled_out":0,"dropped_frozen":0}
{"seq":0,"ts_us":1,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}`,
		"seq 1.5": `{"schema":"aequitas.flight/v1","trigger":"final","ts_us":0,"records":2,"offered":2,"sampled_out":0,"dropped_frozen":0}
{"seq":0,"ts_us":1,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}
{"seq":1.5,"ts_us":1,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}`,
	}
	for name, in := range cases {
		if _, _, err := ValidateDump(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

// FuzzFlightDump: the dump reader never panics; a stream it accepts has
// the counts ValidateDump reports and no counter below zero; and records
// built from the same bytes, written by WriteDump, read back with the
// counts written.
func FuzzFlightDump(f *testing.F) {
	f.Add([]byte(`{"schema":"aequitas.flight/v1","trigger":"final","ts_us":3,"records":2,"offered":3,"sampled_out":1,"dropped_frozen":0}
{"seq":0,"ts_us":1,"kind":"decision","verdict":"admit","src":0,"peer":1,"req":0,"class":0,"p_admit":0.9,"size_mtus":1}
{"seq":1,"ts_us":2,"kind":"complete","verdict":"slo_miss","src":0,"peer":1,"req":0,"class":0,"p_admit":0.8,"size_mtus":1,"lat_us":42.5}
`))
	f.Add([]byte(`{"schema":"aequitas.flight/v1","trigger":"final","ts_us":0,"records":0,"offered":0,"sampled_out":-10,"dropped_frozen":0}`))
	f.Add([]byte(`{"schema":"aequitas.flight/v1","trigger":"final","ts_us":0,"records":1,"offered":2.5,"sampled_out":0,"dropped_frozen":0}
{"seq":0,"ts_us":1,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}`))
	f.Add([]byte(`{"schema":"aequitas.flight/v1","trigger":"manual","ts_us":0,"records":2,"offered":2,"sampled_out":0,"dropped_frozen":0}
{"seq":0,"ts_us":1,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}
{"seq":1.5,"ts_us":1,"kind":"decision","verdict":"admit","src":0,"peer":0,"req":0,"class":0,"p_admit":1,"size_mtus":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := Summarize(bytes.NewReader(data))
		dumps, records, verr := ValidateDump(bytes.NewReader(data))
		if (err == nil) != (verr == nil) {
			t.Fatalf("Summarize error %v, ValidateDump error %v", err, verr)
		}
		if err == nil {
			if len(sum.Dumps) != dumps || sum.Records != records {
				t.Fatalf("summary %d dumps / %d records, ValidateDump %d / %d", len(sum.Dumps), sum.Records, dumps, records)
			}
			n := 0
			for _, d := range sum.Dumps {
				if d.Records < 0 {
					t.Fatalf("dump record count %d", d.Records)
				}
				n += d.Records
			}
			if n != sum.Records || sum.SampledOut > uint64(len(sum.Dumps))<<53 || sum.MinPAdmit < 0 || sum.MaxLatUS < 0 {
				t.Fatalf("accepted summary out of range: %+v", sum)
			}
		}

		verdicts := []Verdict{VerdictAdmit, VerdictDowngrade, VerdictDrop, VerdictExpired, VerdictSLOMet, VerdictSLOMiss}
		var recs []Record
		var ts sim.Time
		for i := 0; i+6 <= len(data); i += 6 {
			b := data[i : i+6]
			ts += sim.Time(b[0]) * sim.Nanosecond
			rec := Record{TS: ts, PAdmit: float64(b[1]) / 255, Src: int32(b[3]), Peer: int32(b[4]),
				SizeMTUs: int32(b[5]), Requested: int8(b[5]), Class: int8(b[3]), Kind: KindDecision,
				Verdict: verdicts[int(b[2])%len(verdicts)]}
			if rec.Verdict == VerdictSLOMet || rec.Verdict == VerdictSLOMiss {
				rec.Kind, rec.LatencyUS = KindComplete, float64(b[4])/4
			} else if b[2] >= 240 {
				rec.Quota = QuotaBypass
			}
			recs = append(recs, rec)
		}
		st := Stats{SampledOut: uint64(len(data))}
		st.Offered = uint64(len(recs)) + st.SampledOut + uint64(len(data)%7)
		// Peer names, detail and label are the input's own bytes, as a peer
		// name from a request can be anything.
		name := func(p int32) string { return string(data[int(p)%(len(data)+1):]) }
		var buf bytes.Buffer
		meta := Meta{Trigger: Trigger{Kind: TriggerManual, At: ts, Detail: string(data)}, Label: string(data), PeerName: name}
		if err := WriteDump(&buf, meta, recs, st); err != nil {
			t.Fatal(err)
		}
		back, err := Summarize(bytes.NewReader(buf.Bytes()))
		if err != nil || len(back.Dumps) != 1 || back.Records != len(recs) || back.SampledOut != st.SampledOut {
			t.Fatalf("%d records written with %+v read back as %+v (%v)", len(recs), st, back, err)
		}
		if want := strings.ToValidUTF8(string(data), "\uFFFD"); back.Dumps[0].Detail != want {
			t.Fatalf("detail %q read back as %q", want, back.Dumps[0].Detail)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		for i, line := range lines[1:] {
			var rec struct {
				PeerName *string `json:"peer_name"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			want := strings.ToValidUTF8(name(recs[i].Peer), "\uFFFD")
			if (rec.PeerName == nil) != (want == "") || rec.PeerName != nil && *rec.PeerName != want {
				t.Fatalf("record %d: peer name %q read back as %v", i, want, rec.PeerName)
			}
		}
	})
}

// FuzzRing runs a byte program against a ring and a sequential model of
// it. The first byte picks the stripes (1, 2 or 4), the sampling (1 in
// 1, 2, 4 or 8) and two or four slots per shard, so programs lap shards
// within a few records. Each following triple is one step: a decision
// (admit, downgrade, drop or expired), a completion (met or missed), a
// quota bypass, or a snapshot with or without reset, on a channel and a
// stripe the triple names. A one-stripe ring is written through the
// public methods, a striped one through put with the named stripe.
// After every step the ring must hold what the model holds: per shard
// (stripe p, channel hash h at p<<3 | h), the offered and sampled
// counts, and the last cap kept records since the last reset.
func FuzzRing(f *testing.F) {
	lap := []byte{0}
	for i := 0; i < 5; i++ {
		lap = append(lap, 1, 9, 0) // drops, always kept, on one channel: a lap of its two slots and more
	}
	f.Add(lap)
	f.Add([]byte{0, 1, 9, 0, 1, 9, 0, 1, 9, 0, 7, 0, 0, 1, 9, 0, 1, 9, 0})                      // reset mid-lap
	f.Add([]byte{0, 1, 9, 0, 7, 0, 0, 1, 9, 0, 1, 9, 0, 1, 9, 0, 6, 0, 0, 1, 9, 0})             // reset, then a lap
	f.Add([]byte{0x1e, 0, 9, 1, 0, 9, 2, 3, 9, 1, 4, 9, 2, 5, 9, 3, 2, 9, 0, 7, 0, 0, 6, 0, 0}) // four stripes, 1 in 8
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		stripes := 1 << min(prog[0]&3, 2)
		cfg := Config{Records: stripes * ringShards * 2 << (prog[0] >> 4 & 1), SampleAdmits: 1 << (prog[0] >> 2 & 3), Stripes: stripes}
		r := NewRing(cfg)
		per := cfg.Records / stripes / ringShards
		type modelShard struct {
			offered, sampled uint64
			kept             []Record
		}
		model := make([]modelShard, stripes*ringShards)
		held := func() []Record {
			var all []Record
			for _, m := range model {
				all = append(all, m.kept...)
			}
			sortRecords(all)
			return all
		}
		check := func(step int, got []Record) {
			t.Helper()
			want := held()
			if len(got) != len(want) {
				t.Fatalf("step %d: ring holds %d records, model %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: record %d is %+v, model %+v", step, i, got[i], want[i])
				}
			}
			var st Stats
			for _, m := range model {
				st.Offered += m.offered
				st.SampledOut += m.sampled
			}
			if got := r.Stats(); got != st {
				t.Fatalf("step %d: stats %+v, model %+v", step, got, st)
			}
		}
		verdicts := []Verdict{VerdictAdmit, VerdictDowngrade, VerdictDrop, VerdictExpired}
		for step, i := 0, 1; i+3 <= len(prog); step, i = step+1, i+3 {
			op, ch, b := prog[i]%8, prog[i+1], prog[i+2]
			if op >= 6 {
				check(step, r.Snapshot(op == 7))
				if op == 7 {
					for j := range model {
						model[j].kept = nil
					}
				}
				continue
			}
			p, src, peer, class := int(b&7), int32(b>>3&1), int32(ch>>2&15), int8(ch&3)
			rec := Record{TS: sim.Time(step/2) * sim.Microsecond, PAdmit: float64(ch) / 255, Src: src, Peer: peer,
				SizeMTUs: int32(b>>4) + 1, Requested: class, Class: class, Kind: KindDecision}
			switch {
			case op <= 2:
				rec.Verdict = verdicts[(int(ch)+int(op))%len(verdicts)]
				if rec.Verdict != VerdictAdmit {
					rec.Class = 2
				}
			case op <= 4:
				rec.Kind, rec.Verdict, rec.LatencyUS = KindComplete, VerdictSLOMet, float64(b)
				if op == 4 {
					rec.Verdict = VerdictSLOMiss
				}
			default:
				rec.PAdmit, rec.Verdict, rec.Quota = 1, VerdictAdmit, QuotaBypass
			}
			switch {
			case stripes > 1:
				put(r, p, rec)
			case rec.Quota == QuotaBypass:
				r.QuotaBypassDecision(rec.TS, src, peer, class, rec.SizeMTUs)
			case rec.Kind == KindComplete:
				r.Complete(rec.TS, src, peer, class, rec.Verdict, rec.PAdmit, rec.SizeMTUs, rec.LatencyUS)
			default:
				r.Decision(rec.TS, src, peer, class, rec.Class, rec.Verdict, rec.PAdmit, rec.SizeMTUs)
			}
			h := (uint64(uint32(src))<<20 ^ uint64(uint32(peer))<<4 ^ uint64(uint8(class))) * 0x9E3779B97F4A7C15
			m := &model[(p&(stripes-1))<<3|int(h>>61)]
			m.offered++
			if sampled := rec.Verdict == VerdictAdmit && rec.Quota == QuotaNone || rec.Verdict == VerdictSLOMet; sampled && !r.sampleKeep(m.offered) {
				m.sampled++
			} else if m.kept = append(m.kept, rec); len(m.kept) > per {
				m.kept = m.kept[1:]
			}
			check(step, r.Snapshot(false))
		}
	})
}

func TestCaptureProfiles(t *testing.T) {
	dir := t.TempDir()
	paths, err := CaptureProfiles(dir, "trig")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("wrote %d profiles, want 2", len(paths))
	}
}
