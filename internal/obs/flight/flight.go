// Package flight implements the admission-control flight recorder: a
// bounded-memory black box that records every admission decision's context
// (timestamp, peer, class, the admit probability consulted, the verdict)
// and every SLO observation (measured latency, met/missed) into a
// lock-free sharded ring buffer, so that when an anomaly engine trigger
// fires — SLO burn rate, a collapsing p_admit, a fault window — the last
// N decisions can be frozen and dumped as schema-tagged NDJSON
// ("aequitas.flight/v1") for offline diagnosis.
//
// The record path is allocation-free and lock-free: a shard is selected by
// hashing the admission channel, a slot is claimed with one atomic add on
// the shard's cursor, and the fixed-size Record is written in place. A nil
// *Ring disables recording with a single pointer check, which is the
// zero-overhead path the controller's admit fast path relies on.
//
// Adaptive sampling keeps the interesting records: downgrades, drops and
// SLO misses are always retained, while admits and SLO-met completions are
// probabilistically sampled (1 in SampleAdmits) using a hash of the
// shard's offered-record counter — no RNG draws and no clock reads, so a
// deterministic caller (the simulator) produces bit-identical rings.
package flight

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"aequitas/internal/sim"
)

// Kind distinguishes the two record types.
type Kind uint8

const (
	// KindDecision is an admission decision (Algorithm 1 lines 5-12).
	KindDecision Kind = iota + 1
	// KindComplete is an SLO observation on a completed RPC (lines 13-20).
	KindComplete
)

func (k Kind) String() string {
	switch k {
	case KindDecision:
		return "decision"
	case KindComplete:
		return "complete"
	default:
		return "unknown"
	}
}

// Verdict is the outcome a record captures: the admission verdict for
// decisions, the SLO comparison for completions.
type Verdict uint8

const (
	VerdictAdmit Verdict = iota + 1
	VerdictDowngrade
	VerdictDrop
	VerdictSLOMet
	VerdictSLOMiss
	// VerdictExpired marks a request rejected before the admission draw
	// because its remaining deadline budget could not cover the observed
	// latency floor — it would have timed out even if admitted.
	VerdictExpired
)

func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictDowngrade:
		return "downgrade"
	case VerdictDrop:
		return "drop"
	case VerdictSLOMet:
		return "slo_met"
	case VerdictSLOMiss:
		return "slo_miss"
	case VerdictExpired:
		return "expired"
	default:
		return "unknown"
	}
}

// Quota is the quota state attached to a decision record.
type Quota uint8

const (
	// QuotaNone marks traffic admitted (or not) by the probabilistic path
	// with no quota involvement.
	QuotaNone Quota = iota
	// QuotaBypass marks an RPC admitted on the quota fast path: it was
	// within its tenant's granted rate and never reached the draw.
	QuotaBypass
)

func (q Quota) String() string {
	if q == QuotaBypass {
		return "bypass"
	}
	return "none"
}

// Record is one flight-recorder entry. The struct is fixed-size and
// pointer-free so the ring is a flat slice the GC never scans per record
// and the record path never allocates.
type Record struct {
	// TS is the record's timestamp on the controller's clock.
	TS sim.Time
	// PAdmit is the admit probability of the (peer, class) channel: at
	// decision time for decisions, after the AIMD update for completions.
	PAdmit float64
	// LatencyUS is the measured latency in microseconds (completions only).
	LatencyUS float64
	// Src identifies the recording controller (the sending host in the
	// simulator, 0 in a single-process server).
	Src int32
	// Peer is the admission channel's destination id.
	Peer int32
	// SizeMTUs is the RPC's size in MTUs.
	SizeMTUs int32
	// Requested is the class the RPC asked for; Class is the class the
	// verdict assigned (decisions) or the class the RPC ran on
	// (completions).
	Requested int8
	Class     int8
	Kind      Kind
	Verdict   Verdict
	Quota     Quota
}

// Stats counts the ring's activity since creation (or the last reset).
type Stats struct {
	// Offered is the number of records presented to the ring.
	Offered uint64
	// SampledOut counts admit/SLO-met records skipped by sampling.
	SampledOut uint64
	// DroppedFrozen counts records that arrived while a dump was freezing
	// the ring and were discarded.
	DroppedFrozen uint64
}

// Config parameterises a Ring.
type Config struct {
	// Records is the total ring capacity across all shards (default
	// 16384). Rounded up so each shard holds a power of two.
	Records int
	// SampleAdmits keeps 1 in SampleAdmits admit and SLO-met records
	// (rounded up to a power of two; default 8). Values <= 1 keep
	// everything. Downgrades, drops, SLO misses and quota bypasses are
	// always kept.
	SampleAdmits int
}

// ringShards is the number of independent ring shards; shardFor keeps
// the top shardBits bits of a hash. Writers hash their admission channel
// to a shard, so concurrent recorders on different channels touch
// disjoint cursors.
const (
	shardBits  = 3
	ringShards = 1 << shardBits
)

// shard is one independent slice of the ring, 128 bytes: the counters
// every writer updates fill the first 64-byte line, the slice headers
// every push reads the second, so cursors on different shards never
// false-share (TestShardLayout).
type shard struct {
	seq     atomic.Uint64 // next slot ordinal within this shard
	offered atomic.Uint64 // records presented (drives sampling)
	sampled atomic.Uint64 // records skipped by sampling
	dropped atomic.Uint64 // records discarded during a freeze
	active  atomic.Int64  // writers currently inside push
	_       [24]byte

	recs []Record
	// commit[i] holds seq+1 of the last completed write to recs[i], with
	// release semantics: a reader that observes the commit value observes
	// the record's fields.
	commit []atomic.Uint64
	_      [16]byte
}

// Ring is the flight recorder's storage. All methods are safe for
// concurrent use; a nil *Ring is the disabled recorder and every method
// is a cheap no-op.
type Ring struct {
	shards     [ringShards]shard
	slotMask   uint64 // per-shard capacity - 1
	sampleMask uint64 // keep admits when hash(offered) & sampleMask == 0
	frozen     atomic.Bool
	// snapMu serializes snapshots: without it, the first of two concurrent
	// snapshots to finish would unfreeze the ring while the other is still
	// copying (or resetting seq, letting two writers claim one slot).
	snapMu sync.Mutex
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewRing builds a Ring. The zero Config gives 16384 records over 8
// shards with 1-in-8 admit sampling.
func NewRing(cfg Config) *Ring {
	if cfg.Records <= 0 {
		cfg.Records = 1 << 14
	}
	per := nextPow2((cfg.Records + ringShards - 1) / ringShards)
	sample := cfg.SampleAdmits
	if sample == 0 {
		sample = 8
	}
	sample = nextPow2(sample)
	r := &Ring{
		slotMask:   uint64(per - 1),
		sampleMask: uint64(sample - 1),
	}
	for i := range r.shards {
		r.shards[i].recs = make([]Record, per)
		r.shards[i].commit = make([]atomic.Uint64, per)
	}
	return r
}

// Cap reports the total record capacity.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.shards) * int(r.slotMask+1)
}

// shardFor hashes an admission channel to a shard — Fibonacci hashing
// with the top bits kept, the well-mixed end of a golden-ratio multiply.
// The hash depends only on the record's content, never the calling
// goroutine, so a deterministic caller fills the shards
// deterministically.
func (r *Ring) shardFor(src, peer int32, class int8) *shard {
	h := (uint64(uint32(src))<<20 ^ uint64(uint32(peer))<<4 ^ uint64(uint8(class))) * 0x9E3779B97F4A7C15
	return &r.shards[h>>(64-shardBits)]
}

// sampleHash decides whether the n-th offered record on a shard survives
// sampling. Fibonacci scrambling of the counter spreads kept records
// evenly without an RNG draw.
func (r *Ring) sampleKeep(n uint64) bool {
	return (n*0x9E3779B97F4A7C15)>>33&r.sampleMask == 0
}

// push claims a slot on sh and writes rec into it. Writers register in
// sh.active before checking the freeze flag, so a freezer that has set
// frozen and seen active==0 knows no writer is mid-slot.
func (r *Ring) push(sh *shard, rec Record) {
	sh.active.Add(1)
	if r.frozen.Load() {
		sh.dropped.Add(1)
		sh.active.Add(-1)
		return
	}
	seq := sh.seq.Add(1) - 1
	i := seq & r.slotMask
	// Wait for the previous lap's write to this slot to commit before
	// overwriting it: two writers a full lap apart would otherwise touch
	// the slot concurrently (reachable when a writer is descheduled while
	// the ring wraps). Every claimed seq is committed — a frozen writer
	// bails before claiming — and each writer waits only on a strictly
	// smaller seq, so the wait chain always bottoms out on a committed
	// slot. In the common case the slot committed a lap ago and the loop
	// is a single load, exactly what the fast path paid before.
	want := uint64(0)
	if seq > r.slotMask {
		want = seq - r.slotMask // previous lap's commit value: (seq-cap)+1
	}
	for sh.commit[i].Load() != want {
		runtime.Gosched()
	}
	sh.recs[i] = rec
	sh.commit[i].Store(seq + 1)
	sh.active.Add(-1)
}

// Decision records one admission decision. v must be VerdictAdmit,
// VerdictDowngrade, VerdictDrop or VerdictExpired; only admits are
// subject to sampling.
func (r *Ring) Decision(ts sim.Time, src, peer int32, requested, got int8, v Verdict, pAdmit float64, sizeMTUs int32) {
	if r == nil {
		return
	}
	sh := r.shardFor(src, peer, requested)
	n := sh.offered.Add(1)
	if v == VerdictAdmit && !r.sampleKeep(n) {
		sh.sampled.Add(1)
		return
	}
	r.push(sh, Record{
		TS: ts, PAdmit: pAdmit, Src: src, Peer: peer, SizeMTUs: sizeMTUs,
		Requested: requested, Class: got, Kind: KindDecision, Verdict: v,
	})
}

// QuotaBypassDecision records an RPC admitted on the quota fast path.
// Quota bypasses are always kept: they are the audit trail for in-quota
// traffic skipping the draw.
func (r *Ring) QuotaBypassDecision(ts sim.Time, src, peer int32, class int8, sizeMTUs int32) {
	if r == nil {
		return
	}
	sh := r.shardFor(src, peer, class)
	sh.offered.Add(1)
	r.push(sh, Record{
		TS: ts, PAdmit: 1, Src: src, Peer: peer, SizeMTUs: sizeMTUs,
		Requested: class, Class: class, Kind: KindDecision, Verdict: VerdictAdmit,
		Quota: QuotaBypass,
	})
}

// Complete records one SLO observation. v must be VerdictSLOMet or
// VerdictSLOMiss; met completions are subject to sampling. pAdmit is the
// channel's probability after the AIMD update.
func (r *Ring) Complete(ts sim.Time, src, peer int32, class int8, v Verdict, pAdmit float64, sizeMTUs int32, latencyUS float64) {
	if r == nil {
		return
	}
	sh := r.shardFor(src, peer, class)
	n := sh.offered.Add(1)
	if v == VerdictSLOMet && !r.sampleKeep(n) {
		sh.sampled.Add(1)
		return
	}
	r.push(sh, Record{
		TS: ts, PAdmit: pAdmit, LatencyUS: latencyUS, Src: src, Peer: peer,
		SizeMTUs: sizeMTUs, Requested: class, Class: class, Kind: KindComplete, Verdict: v,
	})
}

// Stats returns the ring's cumulative counters.
func (r *Ring) Stats() Stats {
	var st Stats
	if r == nil {
		return st
	}
	for i := range r.shards {
		sh := &r.shards[i]
		st.Offered += sh.offered.Load()
		st.SampledOut += sh.sampled.Load()
		st.DroppedFrozen += sh.dropped.Load()
	}
	return st
}

// freeze stops writers and waits until none is mid-slot.
func (r *Ring) freeze() {
	r.frozen.Store(true)
	for i := range r.shards {
		for r.shards[i].active.Load() != 0 {
			// Writers between active.Add(1) and active.Add(-1) hold the
			// slot for a handful of instructions, but one may be
			// descheduled inside that window — yield rather than burn a
			// core until it runs again.
			runtime.Gosched()
		}
	}
}

// Snapshot freezes the ring, copies out every committed record in
// deterministic order — by timestamp, with (src, peer, class, shard
// order) tiebreaks — and unfreezes. With reset true the ring restarts
// empty, so consecutive dumps partition the timeline. Records that arrive
// during the freeze are counted in Stats.DroppedFrozen.
func (r *Ring) Snapshot(reset bool) []Record {
	if r == nil {
		return nil
	}
	out := r.gather(nil, reset)
	sortRecords(out)
	return out
}

// gather is Snapshot without the sort: it freezes the ring, appends every
// committed record to out in shard order, resets the ring when asked,
// and unfreezes.
func (r *Ring) gather(out []Record, reset bool) []Record {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	r.freeze()
	for si := range r.shards {
		sh := &r.shards[si]
		seq := sh.seq.Load()
		cap64 := r.slotMask + 1
		start := uint64(0)
		if seq > cap64 {
			start = seq - cap64
		}
		for s := start; s < seq; s++ {
			i := s & r.slotMask
			if sh.commit[i].Load() == s+1 {
				out = append(out, sh.recs[i])
			}
		}
		if reset {
			sh.seq.Store(0)
			for i := range sh.commit {
				sh.commit[i].Store(0)
			}
		}
	}
	r.frozen.Store(false)
	return out
}

// Set is a group of rings recorded into as one. A writer picks its ring
// by the scheduler P it runs on, so writers on different cores claim
// slots on different cursors, while Snapshot, Stats and Cap cover the
// whole set: a dump of a set is a dump of one ring holding every record
// its rings kept. A set of one ring is that ring, record for record and
// byte for byte. The length is a power of two.
type Set []*Ring

// NewSet builds n rings (n rounded down to a power of two, at least one)
// that share cfg's capacity: each holds cfg.Records/n, so the set holds
// what one ring built from cfg would, up to the per-shard power-of-two
// rounding.
func NewSet(cfg Config, n int) Set {
	if cfg.Records <= 0 {
		cfg.Records = 1 << 14
	}
	n = max(1, nextPow2(n+1)>>1)
	cfg.Records = max(1, cfg.Records/n)
	s := make(Set, n)
	for i := range s {
		s[i] = NewRing(cfg)
	}
	return s
}

// Recorder is what a controller records into: a Ring, or a Set of them.
type Recorder interface {
	// Rings is the recorder as a set: empty for a nil ring.
	Rings() Set
}

// Rings is the set of one ring, r; a nil r is the empty set.
func (r *Ring) Rings() Set {
	if r == nil {
		return nil
	}
	return Set{r}
}

// Rings is s itself.
func (s Set) Rings() Set { return s }

// Pick returns the ring of stripe p; any p is valid.
func (s Set) Pick(p int) *Ring { return s[p&(len(s)-1)] }

// Cap reports the set's total record capacity.
func (s Set) Cap() (n int) {
	for _, r := range s {
		n += r.Cap()
	}
	return n
}

// Stats sums the rings' counters.
func (s Set) Stats() (st Stats) {
	for _, r := range s {
		rs := r.Stats()
		st.Offered += rs.Offered
		st.SampledOut += rs.SampledOut
		st.DroppedFrozen += rs.DroppedFrozen
	}
	return st
}

// Snapshot is Ring.Snapshot over the set: each ring is frozen and copied
// in turn, and the records of all of them are sorted together.
func (s Set) Snapshot(reset bool) []Record {
	var out []Record
	for _, r := range s {
		out = r.gather(out, reset)
	}
	sortRecords(out)
	return out
}

// sortRecords orders a snapshot for dumping: primary by timestamp so the
// dump reads chronologically, with content tiebreaks so the order is a
// pure function of the record multiset (shard gathering order never
// leaks into the dump).
func sortRecords(recs []Record) {
	slices.SortStableFunc(recs, func(a, b Record) int {
		return cmp.Or(
			cmp.Compare(a.TS, b.TS),
			cmp.Compare(a.Src, b.Src),
			cmp.Compare(a.Peer, b.Peer),
			cmp.Compare(a.Requested, b.Requested),
			cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.Verdict, b.Verdict),
			cmp.Compare(a.PAdmit, b.PAdmit),
			cmp.Compare(a.LatencyUS, b.LatencyUS),
			cmp.Compare(a.SizeMTUs, b.SizeMTUs),
		)
	})
}
