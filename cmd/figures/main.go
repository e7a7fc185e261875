// Command figures regenerates every table and figure in the Aequitas
// paper's evaluation (§6 and the appendices) from this repository's
// implementation, rendering the catalogue in internal/figures. Each
// figure prints the same rows/series the paper plots; EXPERIMENTS.md
// records the comparison against the published numbers.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"aequitas/internal/figures"
	"aequitas/internal/obs"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the command: it returns the exit status, so that every deferred
// profile write and file close runs before the process exits.
func run(args []string) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "", "figure id to regenerate (or 'all')")
		list     = fs.Bool("list", false, "list available figures")
		nodes    = fs.Int("nodes", 12, "hosts for cluster-scale experiments (paper: 33)")
		big      = fs.Int("big", 24, "hosts for the large-scale experiment (paper: 144)")
		dur      = fs.Duration("dur", 30*time.Millisecond, "simulated horizon for cluster experiments")
		long     = fs.Duration("long", 600*time.Millisecond, "horizon for convergence experiments")
		seed     = fs.Int64("seed", 1, "simulation seed")
		parallel = fs.Int("parallel", 0, "simulation workers per figure (0 = GOMAXPROCS)")
		progress = fs.Bool("progress", false, "report live per-run sweep progress on stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile covering the figure runs to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file after the figure runs")
		outDir   = fs.String("out", "out", "also write each figure's output to <dir>/fig<id>_output.txt (plus figures_output.txt for -fig all); empty disables")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *cpuProf != "" {
		stop, err := obs.StartCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
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

	if *list || *fig == "" {
		fmt.Println("available figures:")
		for _, f := range figures.All {
			fmt.Printf("  %-12s %s\n", f.ID, f.Desc)
		}
		if *fig == "" && !*list {
			return 2
		}
		return 0
	}

	var selected []figures.Figure
	for _, f := range figures.All {
		if *fig == "all" || f.ID == *fig {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %q; use -list\n", *fig)
		return 2
	}

	var combined *os.File
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "-out %s: %v\n", *outDir, err)
			return 1
		}
		if *fig == "all" {
			var err error
			if combined, err = os.Create(filepath.Join(*outDir, "figures_output.txt")); err != nil {
				fmt.Fprintf(os.Stderr, "-out: %v\n", err)
				return 1
			}
			defer combined.Close()
		}
	}

	o := figures.Options{Nodes: *nodes, Big: *big, Dur: *dur, Long: *long, Seed: *seed, Workers: *parallel, Progress: *progress}
	for _, f := range selected {
		ws := []io.Writer{os.Stdout}
		var perFig *os.File
		if *outDir != "" {
			var err error
			if perFig, err = os.Create(filepath.Join(*outDir, "fig"+f.ID+"_output.txt")); err != nil {
				fmt.Fprintf(os.Stderr, "-out: %v\n", err)
				return 1
			}
			ws = append(ws, perFig)
		}
		if combined != nil {
			ws = append(ws, combined)
		}
		w := io.MultiWriter(ws...)
		fmt.Fprintf(w, "=== %s: %s ===\n", f.ID, f.Desc)
		start := time.Now()
		err := f.Render(w, o)
		if err == nil {
			fmt.Fprintf(w, "--- %s done in %v ---\n\n", f.ID, time.Since(start).Round(time.Millisecond))
		}
		if perFig != nil {
			if cerr := perFig.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f.ID, err)
			return 1
		}
	}
	if combined != nil {
		if err := combined.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "-out: %v\n", err)
			return 1
		}
	}
	return 0
}
