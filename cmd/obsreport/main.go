// Command obsreport is the one inspection command for a run's
// observability artifacts — the NDJSON lifecycle trace, the wide-format
// metrics CSV, the per-RPC attribution CSV and the aequitas.flight/v1
// dump stream. It joins them into a single run report, and diffs two
// such reports with per-metric deltas.
//
// Build a report (any subset of artifacts; markdown to stdout unless
// -json/-md redirect it):
//
//	obsreport -label baseline -trace run.ndjson -metrics run.csv \
//	    -attr run-attr.csv -json run-report.json
//
// A/B-diff two saved reports, biggest relative movements first:
//
//	obsreport -diff baseline-report.json candidate-report.json
//
// Every artifact is checked against its schema while it is summarised,
// and both -diff inputs against the "aequitas.obsreport/v1" report
// schema: a malformed file exits 1 with "path: line N: field ...".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aequitas/internal/obs"
)

func main() {
	var (
		label   = flag.String("label", "", "name for this run in the report (and in diffs)")
		trace   = flag.String("trace", "", "NDJSON lifecycle trace to summarise")
		metrics = flag.String("metrics", "", "metrics CSV to summarise")
		attr    = flag.String("attr", "", "attribution CSV to summarise")
		flightF = flag.String("flight", "", "flight-recorder NDJSON dump stream to summarise")
		jsonOut = flag.String("json", "", "write the report (or diff) as JSON to this file ('-' = stdout)")
		mdOut   = flag.String("md", "", "write the report (or diff) as markdown to this file ('-' = stdout)")
		diff    = flag.Bool("diff", false, "compare two report JSON files: obsreport -diff a.json b.json")
		all     = flag.Bool("all", false, "with -diff, print every metric row instead of the top movements")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: obsreport [-label name] [-trace t.ndjson] [-metrics m.csv] [-attr a.csv] [-flight f.ndjson] [-json out] [-md out]")
		fmt.Fprintln(os.Stderr, "       obsreport -diff [-all] a-report.json b-report.json")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *diff {
		runDiff(flag.Args(), *jsonOut, *mdOut, *all)
		return
	}
	if *trace == "" && *metrics == "" && *attr == "" && *flightF == "" {
		flag.Usage()
		os.Exit(2)
	}

	open := func(path string) io.Reader {
		if path == "" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		return f
	}
	rep, err := obs.BuildReport(*label, open(*trace), open(*metrics), open(*attr), open(*flightF))
	if err != nil {
		fatal(err)
	}
	output(*jsonOut, *mdOut, rep.WriteJSON, rep.WriteMarkdown)
}

// runDiff loads two report JSONs and renders their comparison.
func runDiff(args []string, jsonOut, mdOut string, all bool) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: obsreport -diff a-report.json b-report.json")
		os.Exit(2)
	}
	load := func(path string) *obs.Report {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rep, err := obs.ValidateReportJSON(f)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if rep.Label == "" {
			rep.Label = path
		}
		return rep
	}
	d := obs.DiffReports(load(args[0]), load(args[1]))
	maxRows := 40
	if all {
		maxRows = 0
	}
	output(jsonOut, mdOut, d.WriteJSON, func(w io.Writer) error { return d.WriteMarkdown(w, maxRows) })
}

// output writes the JSON and markdown forms to the files asked for, or
// the markdown to stdout when neither is.
func output(jsonOut, mdOut string, asJSON, asMarkdown func(io.Writer) error) {
	if jsonOut == "" && mdOut == "" {
		mdOut = "-"
	}
	if jsonOut != "" {
		writeTo(jsonOut, asJSON)
	}
	if mdOut != "" {
		writeTo(mdOut, asMarkdown)
	}
}

// writeTo renders into a file, or stdout for "-".
func writeTo(path string, render func(io.Writer) error) {
	if path == "-" {
		if err := render(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := render(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
