// Command obsreport is the one inspection command for a run's
// observability artifacts — the NDJSON lifecycle trace, the wide-format
// metrics CSV, the per-RPC attribution CSV and the aequitas.flight/v1
// dump stream. It joins them into a single run report.
//
// Build a report (any subset of artifacts; markdown to stdout unless
// -json/-md redirect it):
//
//	obsreport -label baseline -trace run.ndjson -metrics run.csv \
//	    -attr run-attr.csv -json run-report.json
//
// Every artifact is checked against its schema while it is summarised:
// a malformed file exits 1 with "path: line N: field ...".
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
		label   = flag.String("label", "", "name for this run in the report")
		trace   = flag.String("trace", "", "NDJSON lifecycle trace to summarise")
		metrics = flag.String("metrics", "", "metrics CSV to summarise")
		attr    = flag.String("attr", "", "attribution CSV to summarise")
		flightF = flag.String("flight", "", "flight-recorder NDJSON dump stream to summarise")
		jsonOut = flag.String("json", "", "write the report as JSON to this file ('-' = stdout)")
		mdOut   = flag.String("md", "", "write the report as markdown to this file ('-' = stdout)")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: obsreport [-label name] [-trace t.ndjson] [-metrics m.csv] [-attr a.csv] [-flight f.ndjson] [-json out] [-md out]")
		flag.PrintDefaults()
	}
	flag.Parse()

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
	if *jsonOut == "" && *mdOut == "" {
		*mdOut = "-"
	}
	if *jsonOut != "" {
		writeTo(*jsonOut, rep.WriteJSON)
	}
	if *mdOut != "" {
		writeTo(*mdOut, rep.WriteMarkdown)
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
