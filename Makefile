GO ?= go

.PHONY: all build test race vet check loc loc-diff bench benchmark pairs figures figures-diff trace-check trace-diff chaos-check serve-check chaos-serve-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-enabled suite covers the parallel sweep engine (RunMany) and
# the concurrent-Run test; it is the gate for changes touching run.go,
# parallel.go, or internal/sim. Race instrumentation is ~10x slower, so
# give the root package's simulation suite room on small machines.
race:
	$(GO) test -race -timeout 45m ./...

vet:
	$(GO) vet ./...

check: vet build race trace-check chaos-check serve-check chaos-serve-check

# loc prints non-test Go lines per package and in total (wc -l of each
# package's GoFiles) for the tree at LOCDIR, so "least code" has a
# trajectory like ns/op does.
LOCDIR ?= .
loc:
	@cd $(LOCDIR) && $(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read pkg files; do printf '%7d  %s\n' "$$(cat $$files | wc -l)" "$$pkg"; done | \
	awk '{ n += $$1; print } END { printf "%7d  total\n", n }'

# loc-diff prints loc for HEAD's first parent, checked out into a
# temporary git worktree, beside loc for this tree, with the difference:
# what a change cost or saved, package by package. A package only the
# parent has follows the total.
loc-diff:
	@tmp=$$(mktemp -d) && trap 'git worktree remove --force "$$tmp" 2>/dev/null; rm -rf "$$tmp"' EXIT && \
	git worktree add --quiet --detach "$$tmp" HEAD^ && \
	$(MAKE) -s loc LOCDIR="$$tmp" > "$$tmp/.loc" && \
	printf ' parent    this   diff\n' && $(MAKE) -s loc | awk ' \
	    NR == FNR { was[$$2] = $$1; next } \
	    { printf "%7d %7d %+6d  %s\n", was[$$2], $$1, $$1 - was[$$2], $$2; delete was[$$2] } \
	    END { for (p in was) printf "%7d %7d %+6d  %s\n", was[p], 0, -was[p], p }' "$$tmp/.loc" -

# trace-check runs a short instrumented simulation and reads every
# observability artifact back with obsreport, whose one reader per format
# checks it against its schema in internal/obs while summarising it: the
# NDJSON lifecycle trace, the metrics CSV (including the -tail windowed
# quantile columns) and the attribution CSV joined into one report, then
# a faulted run's trace (fault events) and its flight-recorder dump stream
# (fault-trigger dumps plus the final dump) against aequitas.flight/v1.
# The first run also prints the attribution and audit tables into
# out/trace-check.txt, which must hold no fmt error verb (%!).
trace-check: build
	@mkdir -p out
	$(GO) run ./cmd/aequitas-sim -hosts 4 -dur 3ms -trace out/trace-check.ndjson \
	    -metrics out/trace-check.csv -tail -attribution-csv out/trace-check-attr.csv \
	    -attribution -audit > out/trace-check.txt
	@if grep -n '%!' out/trace-check.txt; then echo 'out/trace-check.txt: bad format verb'; exit 1; fi
	$(GO) run ./cmd/obsreport -label trace-check -trace out/trace-check.ndjson \
	    -metrics out/trace-check.csv -attr out/trace-check-attr.csv \
	    -json out/trace-check-report.json -md out/trace-check-report.md
	$(GO) run ./cmd/aequitas-sim -hosts 4 -dur 3ms -faults flapcrash -rpc-timeout 300us \
	    -trace out/trace-check-faults.ndjson -flight out/trace-check-flight.ndjson > /dev/null
	$(GO) run ./cmd/obsreport -trace out/trace-check-faults.ndjson > /dev/null
	$(GO) run ./cmd/obsreport -label trace-check-faults -flight out/trace-check-flight.ndjson \
	    -json out/trace-check-flight-report.json -md out/trace-check-flight-report.md

# trace-diff builds aequitas-sim and obsreport from HEAD's first parent,
# checked out into a temporary git worktree, and from this tree, and runs
# with each the trace-check commands plus a faulted run with every sink
# but the NDJSON trace on. It cmps every artifact, and each run's stdout
# after its first line (which carries wall time), and fails on any
# difference: the check for a change that must leave every observability
# output alone. It compares against HEAD^, so commit first.
trace-diff:
	@tmp=$$(mktemp -d) && trap 'git worktree remove --force "$$tmp/src" 2>/dev/null; rm -rf "$$tmp"' EXIT && \
	git worktree add --quiet --detach "$$tmp/src" HEAD^ && \
	for t in parent this; do \
	    src=.; [ $$t = parent ] && src="$$tmp/src"; \
	    mkdir "$$tmp/$$t" "$$tmp/$$t.bin" && \
	    (cd "$$src" && $(GO) build -o "$$tmp/$$t.bin/" ./cmd/aequitas-sim ./cmd/obsreport) && \
	    (cd "$$tmp/$$t" && sim="$$tmp/$$t.bin/aequitas-sim" && rep="$$tmp/$$t.bin/obsreport" && \
	    "$$sim" -hosts 4 -dur 3ms -trace t.ndjson -metrics t.csv -tail -attribution-csv t-attr.csv \
	        -attribution -audit > t.txt && \
	    "$$rep" -label trace-check -trace t.ndjson -metrics t.csv -attr t-attr.csv \
	        -json t-report.json -md t-report.md > /dev/null && \
	    "$$sim" -hosts 4 -dur 3ms -faults flapcrash -rpc-timeout 300us \
	        -trace f.ndjson -flight f-flight.ndjson > f.txt && \
	    "$$rep" -label trace-check-faults -flight f-flight.ndjson \
	        -json f-flight-report.json -md f-flight-report.md > /dev/null && \
	    "$$sim" -hosts 4 -dur 3ms -faults flapcrash -rpc-timeout 300us -attribution-csv s-attr.csv \
	        -audit -metrics s.csv -tail -flight s-flight.ndjson -trace-csv s-trace.csv > s.txt && \
	    for f in *.txt; do tail -n +2 "$$f" > "$$f.x" && mv "$$f.x" "$$f"; done) || exit 1; \
	done && \
	n=0 && bad=0 && for f in "$$tmp/parent"/* "$$tmp/this"/*; do \
	    b=$${f##*/}; [ "$$f" = "$$tmp/this/$$b" ] && [ -e "$$tmp/parent/$$b" ] && continue; n=$$((n + 1)); \
	    cmp "$$tmp/parent/$$b" "$$tmp/this/$$b" || bad=1; \
	done && \
	[ $$bad = 0 ] && echo "trace-diff: $$n artifacts match HEAD^"

# chaos-check is the seeded fault-injection smoke: a link flap plus a host
# crash/restart under the race detector, exercising blackholes, timeouts,
# retries, hedging, and the degradation metrics end to end.
chaos-check:
	$(GO) test -race -run Chaos -timeout 10m .

# serve-check is the live serving smoke: mixed-class HTTP load through the
# serve.Admission middleware on the wall clock must produce downgrades
# under an unmeetable SLO, the live /metrics endpoint must emit valid
# Prometheus text (hostile peer names included, read back through the
# flight dump too) beside /snapshot and the pprof index, and synthetic
# overload must fire the flight recorder's burn-rate trigger with a valid
# dump at /debug/flight. The scripted parity run holds the middleware and
# the interceptor to one behaviour, the election test to one periodic
# evaluation per period, and the allocation tests a request to what
# net/http forces (none served, also when the middleware is called from
# another package; three refused) with the shared response-header values
# left as they were built. An RPC's verdict context must pass on a
# cancellation made on another goroutine.
serve-check:
	$(GO) test -race -run 'TestServeOverloadSmoke|TestServeConcurrent|TestServeFlight|TestMetricsEscapePeerNames|TestAdapterParity|TestClockReadBudget|TestOneElection|TestRequestPathAllocs|TestMiddlewareAllocsFromOutside|TestSharedHeaderValues|TestVerdictContext' -count=1 -timeout 10m ./serve

# chaos-serve-check is the hardened-serving smoke: a race-enabled httptest
# server with deadline budgets, brownout, a fail-open quota plane, and a
# wall-clock chaos plan (latency spike, error burst, quota outage) driven
# through it — every request must be accounted for across served /
# expired / shed / rejected / errored, and /metrics must stay parseable.
chaos-serve-check:
	$(GO) test -race -run TestChaosServeWallClockSmoke -count=1 -timeout 10m ./serve

# bench runs the micro-benchmark families (end-to-end Run, the event
# kernel under round-robin load, under the hold model and with a packet
# run's links delivering back to back as sources, WFQ dequeue, transport
# send, the RPC stack's issue path, histogram record/quantile, an exact
# sample's first quantile of a million values, /metrics render, the
# admission fast path) with full iterations and memory stats, for a human
# to read. The instrument for performance claims is `make benchmark`.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRun|BenchmarkSimLoop|BenchmarkSimHold|BenchmarkSimSources|BenchmarkWFQDequeue|BenchmarkTransportSend|BenchmarkIssue|BenchmarkHist|BenchmarkSampleQuantile|BenchmarkMetricsRender|BenchmarkAdmitDecision|BenchmarkObserve|BenchmarkServeMiddleware|BenchmarkServeInterceptor' \
	    -benchmem . ./internal/sim ./internal/wfq ./internal/transport ./internal/rpc ./internal/stats ./internal/obs ./internal/core ./serve

# benchmark makes one run of the repository benchmark (BENCHMARK.json,
# benchmark/README.md) as the driver makes it: W is the workload, T=1 the
# traced run with the per-layer metrics.
W ?= sim-large-rpc
T ?= 0
benchmark:
	bash benchmark/run.sh --workload $(W) --seed 1 --seconds 15 --trace $(T)

# pairs compares HEAD with its first parent on workload W the way a
# performance claim must: PAIRS alternating pairs of benchmark runs from
# seed SEED on, every run printed, then per end-to-end metric both
# medians, the parent's inter-quartile distance, how many pairs the
# change is ahead in and what the claim rule makes of it (see
# scripts/pairs.sh). Both commits are checked out into temporary git
# worktrees whose paths have one length; uncommitted edits are not
# measured. Ten pairs take about eight minutes.
PAIRS ?= 10
SEED ?= 1
pairs:
	@tmp=$$(mktemp -d) && trap 'git worktree remove --force "$$tmp/parent" 2>/dev/null; git worktree remove --force "$$tmp/change" 2>/dev/null; rm -rf "$$tmp"' EXIT && \
	git worktree add --quiet --detach "$$tmp/parent" HEAD^ && \
	git worktree add --quiet --detach "$$tmp/change" HEAD && \
	sh scripts/pairs.sh "$$tmp/parent" "$$tmp/change" $(W) $(PAIRS) $(SEED)

figures: build
	$(GO) run ./cmd/figures -fig all

# figures-diff renders figure FIG (default all) from HEAD's first parent,
# exported with git archive into a temporary directory, and from this
# tree, each with -out into its own directory, beside -list and stdout.
# It diffs every file with the "--- <id> done in <time> ---" lines
# removed and fails on any difference: the check for a change that must
# keep the figures byte-identical. -fig all takes ~5 minutes for both
# trees on 2 vCPUs, so CI does not run it.
FIG ?= all
figures-diff:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/parent" "$$tmp/this" "$$tmp/src" && \
	git archive HEAD^ | tar -x -C "$$tmp/src" && \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/parent.bin" ./cmd/figures) && \
	$(GO) build -o "$$tmp/this.bin" ./cmd/figures && \
	for t in parent this; do \
	    "$$tmp/$$t.bin" -list > "$$tmp/$$t/list.txt" && \
	    "$$tmp/$$t.bin" -fig $(FIG) -out "$$tmp/$$t" > "$$tmp/$$t/stdout.txt" || exit 1; \
	    for f in "$$tmp/$$t"/*; do grep -v '^--- .* done in .* ---$$' "$$f" > "$$f.x"; mv "$$f.x" "$$f"; done; \
	done && \
	diff -r "$$tmp/parent" "$$tmp/this" && echo "figures-diff: -fig $(FIG) matches HEAD^"
