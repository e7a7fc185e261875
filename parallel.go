package aequitas

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"aequitas/internal/obs"
)

// ParallelOptions configures RunMany and Sweep.
type ParallelOptions struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	// Results are identical for every worker count: each simulation is
	// fully self-contained, so parallelism changes wall-clock time only.
	Workers int
	// OnProgress, when set, is called once per finished configuration
	// (successful or not) with the sweep's live completion count. Calls
	// are serialized, so the callback may write to a shared sink without
	// locking, but completion order — and therefore the Index sequence —
	// depends on scheduling; only Done/Total are monotonic.
	OnProgress func(Progress)
}

// Progress is one RunMany progress notification.
type Progress struct {
	// Index is the configuration that just finished; Err is its error,
	// nil on success.
	Index int
	Err   error
	// Done configurations have finished so far, out of Total.
	Done, Total int
}

func (o ParallelOptions) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// RunMany executes every configuration via Run, fanning the independent
// simulations across a worker pool, and returns results in input order.
// Each simulation owns all of its state (simulator, RNG, network,
// collector), so runs neither share nor mutate anything; the only caveat
// is that configurations run concurrently must not share a TraceWriter.
//
// On failure RunMany still finishes the remaining configurations and
// returns the lowest-index error (deterministic regardless of scheduling);
// the result slice holds nil at failed indices.
func RunMany(cfgs []SimConfig, opts ParallelOptions) ([]*Results, error) {
	n := len(cfgs)
	results := make([]*Results, n)
	if n == 0 {
		return results, nil
	}
	errs := make([]error, n)
	next := int64(-1)
	var (
		wg         sync.WaitGroup
		progressMu sync.Mutex
		done       int
	)
	for w := opts.workers(n); w > 0; w-- {
		worker := w - 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The pprof label attributes CPU samples to this worker in
			// -cpuprofile output; it has no effect on results.
			obs.DoWorker(worker, func() {
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= n {
						return
					}
					results[i], errs[i] = Run(cfgs[i])
					if opts.OnProgress != nil {
						progressMu.Lock()
						done++
						opts.OnProgress(Progress{Index: i, Err: errs[i], Done: done, Total: n})
						progressMu.Unlock()
					}
				}
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("aequitas: sweep config %d: %w", i, err)
		}
	}
	return results, nil
}

// Sweep builds n configurations with mk and runs them through RunMany —
// the convenience form for figure generation ("one config per table row").
func Sweep(n int, mk func(i int) SimConfig, opts ParallelOptions) ([]*Results, error) {
	cfgs := make([]SimConfig, n)
	for i := range cfgs {
		cfgs[i] = mk(i)
	}
	return RunMany(cfgs, opts)
}
