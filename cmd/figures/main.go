// Command figures regenerates every table and figure in the Aequitas
// paper's evaluation (§6 and the appendices) from this repository's
// implementation. Each figure prints the same rows/series the paper
// plots; EXPERIMENTS.md records the comparison against the published
// numbers.
//
// Usage:
//
//	figures -fig 8          # one figure
//	figures -fig all        # everything (minutes)
//	figures -list           # what's available
//	figures -fig 12 -nodes 33 -dur 100ms   # paper-scale override
//
// Simulated experiments default to a reduced scale (fewer hosts, shorter
// horizon) that preserves the paper's shape — who wins, by what factor,
// where crossovers fall — while completing quickly. Use -nodes/-dur for
// full-scale runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"aequitas"
	"aequitas/internal/obs"
)

// figure is one regenerable experiment.
type figure struct {
	id   string
	desc string
	run  func(o options) error
}

// options carries the shared CLI knobs.
type options struct {
	nodes    int           // cluster size for "33-node" experiments
	big      int           // cluster size for the "144-node" experiment
	dur      time.Duration // simulated horizon for cluster experiments
	long     time.Duration // horizon for convergence experiments
	seed     int64
	workers  int  // simulation worker-pool size (0 = GOMAXPROCS)
	progress bool // report per-run sweep completion on stderr
}

// progressFn returns the RunMany progress callback: live "run k/n"
// completions on stderr when -progress is set, nil otherwise. Progress
// goes to stderr so piped figure output stays clean.
func (o options) progressFn() func(aequitas.Progress) {
	if !o.progress {
		return nil
	}
	return func(p aequitas.Progress) {
		if p.Err != nil {
			fmt.Fprintf(os.Stderr, "  run %d/%d failed (config %d): %v\n", p.Done, p.Total, p.Index, p.Err)
			return
		}
		fmt.Fprintf(os.Stderr, "  run %d/%d done (config %d)\n", p.Done, p.Total, p.Index)
	}
}

// runAll fans the independent simulations of one figure across the worker
// pool and returns results in input order. Figure output is identical for
// any -parallel value; only wall-clock time changes.
func runAll(o options, cfgs ...aequitas.SimConfig) ([]*aequitas.Results, error) {
	return aequitas.RunMany(cfgs, aequitas.ParallelOptions{Workers: o.workers, OnProgress: o.progressFn()})
}

// parallelFor runs f(0..n-1) on the worker pool — for figure inner loops
// that are not packet simulations (fleet models, distribution sampling).
// Each f(i) must be independent and write only to index-i state.
func parallelFor(workers, n int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

var figures []figure

func register(id, desc string, run func(o options) error) {
	figures = append(figures, figure{id, desc, run})
}

func main() {
	var (
		fig      = flag.String("fig", "", "figure id to regenerate (or 'all')")
		list     = flag.Bool("list", false, "list available figures")
		nodes    = flag.Int("nodes", 12, "hosts for cluster-scale experiments (paper: 33)")
		big      = flag.Int("big", 24, "hosts for the large-scale experiment (paper: 144)")
		dur      = flag.Duration("dur", 30*time.Millisecond, "simulated horizon for cluster experiments")
		long     = flag.Duration("long", 600*time.Millisecond, "horizon for convergence experiments")
		seed     = flag.Int64("seed", 1, "simulation seed")
		parallel = flag.Int("parallel", 0, "simulation workers per figure (0 = GOMAXPROCS)")
		progress = flag.Bool("progress", false, "report live per-run sweep progress on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile covering the figure runs to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file after the figure runs")
		outDir   = flag.String("out", "out", "also write each figure's output to <dir>/fig<id>_output.txt (plus figures_output.txt for -fig all); empty disables")
	)
	flag.Parse()

	if *cpuProf != "" {
		stop, err := obs.StartCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	sort.Slice(figures, func(i, j int) bool { return figures[i].id < figures[j].id })

	if *list || *fig == "" {
		fmt.Println("available figures:")
		for _, f := range figures {
			fmt.Printf("  %-12s %s\n", f.id, f.desc)
		}
		if *fig == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var combined *os.File
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "-out %s: %v\n", *outDir, err)
			os.Exit(1)
		}
		if *fig == "all" {
			var err error
			combined, err = os.Create(filepath.Join(*outDir, "figures_output.txt"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "-out: %v\n", err)
				os.Exit(1)
			}
			defer combined.Close()
		}
	}

	o := options{nodes: *nodes, big: *big, dur: *dur, long: *long, seed: *seed, workers: *parallel, progress: *progress}
	ran := false
	for _, f := range figures {
		if *fig == "all" || f.id == *fig {
			ran = true
			var perFig *os.File
			if *outDir != "" {
				var err error
				perFig, err = os.Create(filepath.Join(*outDir, "fig"+f.id+"_output.txt"))
				if err != nil {
					fmt.Fprintf(os.Stderr, "-out: %v\n", err)
					os.Exit(1)
				}
			}
			err := teeStdout(func() error {
				fmt.Printf("=== %s: %s ===\n", f.id, f.desc)
				start := time.Now()
				if err := f.run(o); err != nil {
					return err
				}
				fmt.Printf("--- %s done in %v ---\n\n", f.id, time.Since(start).Round(time.Millisecond))
				return nil
			}, perFig, combined)
			if perFig != nil {
				perFig.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "figure %s: %v\n", f.id, err)
				os.Exit(1)
			}
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q; use -list\n", *fig)
		os.Exit(2)
	}
}

// teeStdout runs fn with os.Stdout duplicated into the given files (nils
// skipped). It restores os.Stdout and waits for the copier to drain
// before returning, so per-figure files are complete when closed. With no
// files, fn runs undisturbed.
func teeStdout(fn func() error, files ...*os.File) error {
	ws := []io.Writer{os.Stdout}
	for _, f := range files {
		if f != nil {
			ws = append(ws, f)
		}
	}
	if len(ws) == 1 {
		return fn()
	}
	r, w, err := os.Pipe()
	if err != nil {
		return err
	}
	real := os.Stdout
	os.Stdout = w
	done := make(chan struct{})
	mw := io.MultiWriter(ws...)
	go func() {
		io.Copy(mw, r)
		close(done)
	}()
	ferr := fn()
	w.Close()
	<-done
	os.Stdout = real
	return ferr
}
