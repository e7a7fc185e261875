// Package flight implements the admission-control flight recorder: a
// bounded-memory black box that records every admission decision's context
// (timestamp, peer, class, the admit probability consulted, the verdict)
// and every SLO observation (measured latency, met/missed) into a
// lock-free sharded ring buffer, so that when an anomaly engine trigger
// fires — SLO burn rate, a collapsing p_admit, a fault window — the last
// N decisions can be frozen and dumped as schema-tagged NDJSON
// ("aequitas.flight/v1") for offline diagnosis.
//
// The record path is allocation-free and lock-free. The ring is a grid of
// shards, Config.Stripes P stripes by 8 channel-hash shards: a writer
// takes the stripe of the scheduler P it runs on (none to look up with
// one stripe) and the shard its admission channel hashes to, claims a
// slot with one atomic add on that shard's cursor, and writes the
// fixed-size Record in place. Writers on different cores thus claim slots
// on different cursors, and a dump freezes every shard at once, so it is
// one cut in time. A nil *Ring disables recording with a single pointer
// check, which is the zero-overhead path the controller's admit fast path
// relies on.
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

	"aequitas/internal/proc"
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

// Stats counts the ring's activity since creation; a resetting
// snapshot empties the ring but keeps the counts.
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
	// Records is the total ring capacity across all stripes and shards
	// (default 16384): each stripe holds Records/Stripes, rounded up so
	// each shard holds a power of two.
	Records int
	// SampleAdmits keeps 1 in SampleAdmits admit and SLO-met records
	// (rounded up to a power of two; default 8). Values <= 1 keep
	// everything. Downgrades, drops, SLO misses and quota bypasses are
	// always kept.
	SampleAdmits int
	// Stripes is the number of P stripes, rounded down to a power of two
	// (zero means one). A writer records into the stripe of the P it runs
	// on, so one goroutine keeps about Records/Stripes of its own records.
	// One stripe makes the ring a pure function of what was recorded,
	// whatever goroutine recorded it, as a simulation needs.
	Stripes int
}

// ringShards is the number of channel-hash shards per stripe; shardFor
// keeps the top shardBits bits of a hash. Writers hash their admission
// channel to a shard, so concurrent recorders on different channels
// touch disjoint cursors.
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
	// start is seq at the last resetting snapshot: a snapshot reads no
	// slot claimed before it. Only snapshots touch it, under snapMu.
	start uint64
	_     [16]byte

	recs []Record
	// commit[i] holds seq+1 of the last completed write to recs[i], with
	// release semantics: a reader that observes the commit value observes
	// the record's fields. A commit value is never reused.
	commit []atomic.Uint64
	_      [16]byte
}

// Ring is the flight recorder's storage. All methods are safe for
// concurrent use; a nil *Ring is the disabled recorder and every method
// is a cheap no-op.
type Ring struct {
	// shards is the grid: the shard of stripe p and channel hash h is
	// shards[p<<shardBits | h].
	shards     []shard
	stripeMask int    // stripes - 1
	slotMask   uint64 // per-shard capacity - 1
	sampleMask uint64 // keep admits when hash(offered) & sampleMask == 0
	frozen     atomic.Bool
	// snapMu serializes snapshots: without it, the first of two concurrent
	// snapshots to finish would unfreeze the ring while the other is still
	// copying (or moving the shards' start).
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

// NewRing builds a Ring. The zero Config gives one stripe of 16384
// records over 8 shards with 1-in-8 admit sampling.
func NewRing(cfg Config) *Ring {
	if cfg.Records <= 0 {
		cfg.Records = 1 << 14
	}
	stripes := max(1, nextPow2(cfg.Stripes+1)>>1)
	perStripe := max(1, cfg.Records/stripes)
	per := nextPow2((perStripe + ringShards - 1) / ringShards)
	sample := cfg.SampleAdmits
	if sample == 0 {
		sample = 8
	}
	sample = nextPow2(sample)
	r := &Ring{
		shards:     make([]shard, stripes*ringShards),
		stripeMask: stripes - 1,
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

// stripe is the calling goroutine's stripe: its P, unless the ring has
// only one.
func (r *Ring) stripe() int {
	if r.stripeMask == 0 {
		return 0
	}
	return proc.ID()
}

// shardFor hashes an admission channel to a shard of stripe p (any p is
// valid) — Fibonacci hashing with the top bits kept, the well-mixed end
// of a golden-ratio multiply. Within a stripe the hash depends only on
// the record's content, never the calling goroutine, so a deterministic
// caller fills a one-stripe ring deterministically.
func (r *Ring) shardFor(p int, src, peer int32, class int8) *shard {
	h := (uint64(uint32(src))<<20 ^ uint64(uint32(peer))<<4 ^ uint64(uint8(class))) * 0x9E3779B97F4A7C15
	return &r.shards[(p&r.stripeMask)<<shardBits|int(h>>(64-shardBits))]
}

// sampleKeep decides whether the n-th offered record on a shard survives
// sampling. Fibonacci scrambling of the counter spreads kept records
// evenly without an RNG draw.
func (r *Ring) sampleKeep(n uint64) bool {
	return (n*0x9E3779B97F4A7C15)>>33&r.sampleMask == 0
}

// offer counts a record of channel (src, peer, class) on its shard of
// stripe p and returns that shard, or nil when sampling drops the
// record: a record subject to sampling is kept 1 in SampleAdmits times.
func (r *Ring) offer(p int, src, peer int32, class int8, sampled bool) *shard {
	sh := r.shardFor(p, src, peer, class)
	n := sh.offered.Add(1)
	if sampled && !r.sampleKeep(n) {
		sh.sampled.Add(1)
		return nil
	}
	return sh
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
	if sh := r.offer(r.stripe(), src, peer, requested, v == VerdictAdmit); sh != nil {
		r.push(sh, Record{
			TS: ts, PAdmit: pAdmit, Src: src, Peer: peer, SizeMTUs: sizeMTUs,
			Requested: requested, Class: got, Kind: KindDecision, Verdict: v,
		})
	}
}

// QuotaBypassDecision records an RPC admitted on the quota fast path.
// Quota bypasses are always kept: they are the audit trail for in-quota
// traffic skipping the draw.
func (r *Ring) QuotaBypassDecision(ts sim.Time, src, peer int32, class int8, sizeMTUs int32) {
	if r == nil {
		return
	}
	r.push(r.offer(r.stripe(), src, peer, class, false), Record{
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
	if sh := r.offer(r.stripe(), src, peer, class, v == VerdictSLOMet); sh != nil {
		r.push(sh, Record{
			TS: ts, PAdmit: pAdmit, LatencyUS: latencyUS, Src: src, Peer: peer,
			SizeMTUs: sizeMTUs, Requested: class, Class: class, Kind: KindComplete, Verdict: v,
		})
	}
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

// Snapshot freezes every shard, copies out each committed record claimed
// since the last reset, unfreezes, and sorts the copy (sortRecords). With
// reset true the ring restarts empty, so consecutive dumps partition the
// timeline: each shard's start moves to its cursor, and no slot is
// written. Records that arrive during the freeze are counted in
// Stats.DroppedFrozen.
func (r *Ring) Snapshot(reset bool) []Record {
	if r == nil {
		return nil
	}
	var out []Record
	r.snapMu.Lock()
	r.freeze()
	for si := range r.shards {
		sh := &r.shards[si]
		seq, from := sh.seq.Load(), sh.start
		if n := r.slotMask + 1; seq-from > n {
			from = seq - n
		}
		for s := from; s < seq; s++ {
			i := s & r.slotMask
			if sh.commit[i].Load() == s+1 {
				out = append(out, sh.recs[i])
			}
		}
		if reset {
			sh.start = seq
		}
	}
	r.frozen.Store(false)
	r.snapMu.Unlock()
	sortRecords(out)
	return out
}

// sortRecords orders a snapshot for dumping: primary by timestamp so the
// dump reads chronologically, with every other field as a tiebreak so the
// order is a pure function of the record multiset (shard gathering order
// never leaks into the dump).
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
			cmp.Compare(a.Class, b.Class),
			cmp.Compare(a.Quota, b.Quota),
		)
	})
}
