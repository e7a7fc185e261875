// Package flight implements the admission-control flight recorder: a
// bounded-memory black box that records every admission decision's context
// (timestamp, peer, class, the admit probability consulted, the verdict)
// and every SLO observation (measured latency, met/missed) into a
// lock-free sharded ring buffer, so that when an anomaly engine trigger
// fires — SLO burn rate, a collapsing p_admit, a fault window — the last
// N decisions can be dumped as schema-tagged NDJSON
// ("aequitas.flight/v1") for offline diagnosis.
//
// The record path is allocation-free and lock-free. The ring is a grid of
// shards, Config.Stripes P stripes by 8 channel-hash shards: a writer
// takes the stripe of the scheduler P it runs on (none to look up with
// one stripe) and the shard its admission channel hashes to, claims a
// slot on that shard's cursor, takes it by a compare-and-swap of its
// commit word, and writes the fixed-size Record in place. A dump reads
// every cursor in one pass, a cut per shard rather than one instant, and
// copies each slot claimed before it once committed, keeping the copy if
// the commit word is unchanged after it: a dump waits for writers, never
// the reverse, and loses no record. A nil *Ring disables recording with
// a single pointer check, which is the zero-overhead path the
// controller's admit fast path relies on.
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
// snapshot empties the ring but keeps the counts. Every record offered
// and not sampled out is kept until a resetting snapshot returns it or a
// later record of its shard evicts it: a snapshot drops none.
type Stats struct {
	// Offered is the number of records presented to the ring.
	Offered uint64
	// SampledOut counts admit/SLO-met records skipped by sampling.
	SampledOut uint64
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
	// start is seq at the last resetting snapshot: a snapshot reads no
	// slot claimed before it. Only snapshots touch it, under snapMu.
	start uint64
	_     [32]byte

	recs []Record
	// commit[i] orders every state recs[i] passes through, so that one
	// comparison tells where the slot stands: 0 before its first write,
	// busy(s) while the writer of ordinal s holds it, done(s) once s's
	// record is written. A value is never reused.
	commit []atomic.Uint64
	_      [16]byte
}

func busy(s uint64) uint64 { return 2*s + 1 }
func done(s uint64) uint64 { return 2*s + 2 }

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
	// snapMu serializes snapshots, which read and move the shards' start.
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

// push claims a slot on sh and writes rec into it.
func (r *Ring) push(sh *shard, rec Record) {
	seq := sh.seq.Add(1) - 1
	i := seq & r.slotMask
	// Take the slot once the previous lap's writer has committed it (it
	// may be descheduled while the ring wraps). Every claimed seq commits
	// and each writer waits only on a smaller one, so the wait ends; the
	// slot is usually a lap old and the first compare-and-swap takes it.
	prev := uint64(0)
	if seq > r.slotMask {
		prev = done(seq - r.slotMask - 1)
	}
	for !sh.commit[i].CompareAndSwap(prev, busy(seq)) {
		runtime.Gosched()
	}
	sh.recs[i] = rec
	sh.commit[i].Store(done(seq))
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
	}
	return st
}

// Snapshot copies out every record claimed since the last reset and not
// yet evicted, and sorts the copy (sortRecords). It reads every shard's
// cursor in one pass, and that cut bounds what it returns: it waits for
// each slot claimed before the cut to be written, and skips one that a
// later lap has taken. Writers never wait for it. With reset true the
// ring restarts empty at the cut, so consecutive resetting snapshots
// partition each shard's timeline, and no slot is written.
func (r *Ring) Snapshot(reset bool) []Record {
	if r == nil {
		return nil
	}
	var out []Record
	r.snapMu.Lock()
	cut := make([]uint64, len(r.shards))
	for si := range r.shards {
		cut[si] = r.shards[si].seq.Load()
	}
	for si, end := range cut {
		sh := &r.shards[si]
		for s := max(sh.start, end-min(end, r.slotMask+1)); s < end; s++ {
			if rec, ok := r.read(sh, s, copyRecord); ok {
				out = append(out, rec)
			}
		}
		if reset {
			sh.start = end
		}
	}
	r.snapMu.Unlock()
	sortRecords(out)
	return out
}

// read copies the record of ordinal s with cp and reports whether the
// copy is s's record: it waits while s's writer, or an earlier lap's,
// still has the slot to write, and reports false once a later lap has
// taken it, before the copy or during it.
func (r *Ring) read(sh *shard, s uint64, cp func(*Record) Record) (Record, bool) {
	c := &sh.commit[s&r.slotMask]
	for c.Load() < done(s) {
		runtime.Gosched()
	}
	if c.Load() != done(s) {
		return Record{}, false
	}
	rec := cp(&sh.recs[s&r.slotMask])
	// A read-modify-write, not a load, as a weakly ordered CPU (arm64)
	// needs: a writer lapping the slot takes it by one too, so either
	// this one comes first and orders the copy before that writer's
	// stores, or it fails. After a plain load the copy could still read
	// the next lap's record.
	return rec, c.CompareAndSwap(done(s), done(s))
}

// copyRecord copies a slot a lapping writer may be writing, which read
// detects, so the race detector need not watch it.
//
//go:norace
func copyRecord(src *Record) Record { return *src }

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
