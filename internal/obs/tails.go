package obs

import (
	"strconv"

	"aequitas/internal/sim"
	"aequitas/internal/stats"
)

// TailTracker turns completed-RPC latencies into a windowed tail
// time-series: per (destination, run-class) channel it accumulates RNL
// observations into a log-linear histogram and, on every metrics-registry
// tick, emits that window's p50/p90/p99/p99.9 (plus the window count)
// before resetting the histograms. The window is therefore the registry's
// sampling interval (ObsConfig.MetricsEvery).
//
// Emitted metric names follow the registry's dotted-family convention:
//
//	tail.d<dst>.q<class>.n
//	tail.d<dst>.q<class>.p50_us ... .p999_us
//
// Windows with no completions for a channel emit nothing (empty CSV
// cells), so quiet channels stay cheap and visibly quiet.
//
// Each run owns its tracker and the observation order is the run's
// deterministic completion order, so the resulting CSV columns are
// byte-identical for a fixed SimConfig at any sweep worker count.
type TailTracker struct {
	series map[tailKey]*tailSeries
	// order keeps the emit order deterministic: keys sorted by (dst,
	// class), maintained on insert.
	order []tailKey
}

// tailSeries is one channel's open window and its metric names — ".n",
// then one per tailQuantiles entry — built when the channel first emits.
type tailSeries struct {
	hist  *stats.Hist
	names []string
}

type tailKey struct {
	dst   int32
	class int16
}

// tailQuantiles are the emitted quantiles and their metric-name suffixes.
var tailQuantiles = []struct {
	suffix string
	q      float64
}{
	{".p50_us", 0.50},
	{".p90_us", 0.90},
	{".p99_us", 0.99},
	{".p999_us", 0.999},
}

// NewTailTracker returns an empty tracker.
func NewTailTracker() *TailTracker {
	return &TailTracker{series: make(map[tailKey]*tailSeries)}
}

// Observe records one completed RPC's network latency (µs) on the (dst,
// class) channel. Allocation happens only on a channel's first
// observation (histogram construction); the steady state is a map lookup
// plus a zero-alloc histogram record.
func (t *TailTracker) Observe(dst, class int, rnlUS float64) {
	if t == nil {
		return
	}
	k := tailKey{dst: int32(dst), class: int16(class)}
	sr, ok := t.series[k]
	if !ok {
		sr = &tailSeries{hist: stats.NewHist()}
		t.series[k] = sr
		t.insertOrdered(k)
	}
	sr.hist.Record(rnlUS)
}

// insertOrdered keeps order sorted by (dst, class).
func (t *TailTracker) insertOrdered(k tailKey) {
	i := len(t.order)
	for i > 0 {
		p := t.order[i-1]
		if p.dst < k.dst || (p.dst == k.dst && p.class < k.class) {
			break
		}
		i--
	}
	t.order = append(t.order, tailKey{})
	copy(t.order[i+1:], t.order[i:])
	t.order[i] = k
}

// Sampler returns the registry sampler that closes each window: it emits
// every channel's windowed count and tail quantiles in deterministic
// (dst, class) order, then resets the histograms so the next tick starts
// a fresh window. A tick with no new channel allocates nothing.
func (t *TailTracker) Sampler() Sampler {
	return func(now sim.Time, emit func(string, float64)) {
		for _, k := range t.order {
			sr := t.series[k]
			h := sr.hist
			if h.N() == 0 {
				continue
			}
			if sr.names == nil {
				base := "tail.d" + strconv.Itoa(int(k.dst)) + ".q" + strconv.Itoa(int(k.class))
				sr.names = []string{base + ".n"}
				for _, tq := range tailQuantiles {
					sr.names = append(sr.names, base+tq.suffix)
				}
			}
			emit(sr.names[0], float64(h.N()))
			for i, tq := range tailQuantiles {
				emit(sr.names[1+i], h.Quantile(tq.q))
			}
			h.Reset()
		}
	}
}
