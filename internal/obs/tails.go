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
// sampling interval (100 µs of simulated time in a run). The run's Tracer
// feeds it every completion.
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
	// series[dst][class] is one channel's window, nil until the channel
	// is first observed; walking it visits the channels in (dst, class)
	// order, the emit order.
	series [][]*tailSeries
}

// tailSeries is one channel's open window and its metric names — ".n",
// then one per tailQuantiles entry — built when the channel first emits.
type tailSeries struct {
	hist  *stats.Hist
	names []string
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
func NewTailTracker() *TailTracker { return &TailTracker{} }

// Observe records one completed RPC's network latency (µs) on the (dst,
// class) channel; both are dense, non-negative ids. Allocation happens
// only on a channel's first observation (histogram construction); the
// steady state is two slice indexes plus a zero-alloc histogram record.
func (t *TailTracker) Observe(dst, class int, rnlUS float64) {
	if t == nil {
		return
	}
	if dst >= len(t.series) {
		t.series = append(t.series, make([][]*tailSeries, dst+1-len(t.series))...)
	}
	if row := t.series[dst]; class >= len(row) {
		t.series[dst] = append(row, make([]*tailSeries, class+1-len(row))...)
	}
	sr := t.series[dst][class]
	if sr == nil {
		sr = &tailSeries{hist: stats.NewHist()}
		t.series[dst][class] = sr
	}
	sr.hist.Record(rnlUS)
}

// Sampler returns the registry sampler that closes each window: it emits
// every channel's windowed count and tail quantiles in deterministic
// (dst, class) order, then resets the histograms so the next tick starts
// a fresh window. A tick with no new channel allocates nothing.
func (t *TailTracker) Sampler() Sampler {
	return func(now sim.Time, emit func(string, float64)) {
		for dst, row := range t.series {
			for class, sr := range row {
				if sr == nil || sr.hist.N() == 0 {
					continue
				}
				h := sr.hist
				if sr.names == nil {
					base := "tail.d" + strconv.Itoa(dst) + ".q" + strconv.Itoa(class)
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
}
