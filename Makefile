# Developer entry points. `make check` is the tier-1 gate every PR must
# pass (see ROADMAP.md): formatting, vet, build, the full test suite
# under the race detector, and the benchmark module's own gate.

GO ?= go

# Shared flags for the regression-smoke invocations below: two
# benchmarks at reduced scale through the worker pool, so the report
# comparisons and the committed baseline all describe the same run.
SMOKE_ARGS = -scale bench -jobs 4 -only table3 -bench mcf,health

.PHONY: check fmt vet lint lint-perf build test test-short race benchmark-module bench bench-micro bench-smoke bench-baseline bench-gate bench-trajectory stream-smoke report-smoke perf-smoke explain-smoke fuzz-smoke clean

check: fmt vet lint build race benchmark-module

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Repo-specific invariants (determinism, span lifecycle, metric names,
# hot-path zero-alloc/zero-dispatch, compiler escape/inline budget); see
# DESIGN.md "Static invariants" / "Hot-path static invariants" and
# internal/analysis. Also the offline-harness rule: no CLI or internal
# package may link net/http — every observability output is a file or a
# stderr line, so a network listener is a regression.
lint:
	$(GO) run ./cmd/prefix-lint ./...
	@if $(GO) list -deps ./cmd/... ./internal/... | grep -qx 'net/http'; then \
		echo "lint: offline-harness rule: net/http is linked by:"; \
		$(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' -deps ./cmd/... ./internal/... | grep -E '^prefix/.* net/http( |$$)'; \
		exit 1; \
	fi

# Hot-path performance gate, separated out for CI artifact upload: the
# hotalloc/hotcall/escapebudget family over the whole tree with
# machine-readable findings, plus a freshly recorded escape budget
# diffed against the committed one. Findings fail the target; budget
# drift that breaks no invariant (e.g. an inline cost change) is
# surfaced in lint-out/escape-budget.diff but does not fail.
lint-perf:
	@rm -rf lint-out && mkdir -p lint-out
	@$(GO) run ./cmd/prefix-lint -analyzers hotalloc,hotcall,escapebudget -json ./... > lint-out/findings.json; \
	status=$$?; \
	$(GO) run ./cmd/prefix-lint -analyzers escapebudget -record -budget lint-out/escape-budget.json ./... 2>/dev/null; \
	diff -u testdata/escape-budget.json lint-out/escape-budget.json > lint-out/escape-budget.diff; \
	if [ -s lint-out/escape-budget.diff ]; then \
		echo "lint-perf: escape budget drifted from testdata/escape-budget.json (see lint-out/escape-budget.diff)"; \
	fi; \
	if [ $$status -ne 0 ]; then \
		echo "lint-perf: hot-path findings:"; cat lint-out/findings.json; exit $$status; \
	fi; \
	echo "lint-perf: hot-path invariants clean"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Quick iteration loop: skips the long pipeline end-to-end tests.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The benchmark module (benchmark/, its own go.mod) drives the exported
# trace and pipeline API, so it is vetted, tested, and linted with the
# tree it measures: a break in `sh benchmark/run.sh` fails here.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...
	$(GO) run ./cmd/prefix-lint -C benchmark ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# One-iteration smoke of the inner-loop microbenchmarks (cache probe,
# hierarchy walk, machine event loop, miners, simulated heap churn,
# trace analyzer feed).
# Catches compile breakage and gross regressions in CI without paying for
# a real measurement; use `make bench` for numbers.
bench-micro:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ \
		./internal/cachesim ./internal/machine ./internal/hds ./internal/trace \
		./internal/simalloc

# Fast end-to-end smoke of the parallel harness.
bench-smoke:
	$(GO) run ./cmd/prefix-bench $(SMOKE_ARGS)

# Refresh the committed regression-gate baseline (same run as bench-gate).
bench-baseline:
	$(GO) run ./cmd/prefix-bench $(SMOKE_ARGS) \
		-record-out testdata/bench-smoke-baseline.json > /dev/null

# Regression gate: rerun the smoke suite and diff it against the
# committed baseline. The threshold is generous because CI only needs to
# catch breakage, not noise (the simulation itself is deterministic).
bench-gate:
	$(GO) run ./cmd/prefix-bench $(SMOKE_ARGS) \
		-baseline testdata/bench-smoke-baseline.json -regress-pct 50

# Host-cost smoke gate: the perfstat end-to-end tests (every suite job
# carries a host sample; events/sec > 0; cost attribution tracks scale;
# attaching the collector leaves the report byte-identical and costs
# < 2% wall; the -v totals stay exact under nested and overlapping
# scopes, and a recorded sample carries its goroutine count), then the
# baseline diff — schema-v2 baselines carry host fields, so an
# events/sec collapse past the slack-adjusted threshold fails the gate
# alongside the simulated metrics.
perf-smoke:
	$(GO) test ./internal/pipeline -run 'TestPerfSmoke|TestPerfScaleMonotone|TestStageSurface|TestStreamProfileErrorClosesStages' -count=1
	$(GO) test ./internal/obs/perfstat -run 'TestSnapshotTotalsExactUnderNesting|TestRecordGoroutines' -count=1
	$(GO) test ./cmd/prefix-bench -run TestPerfParityAndOverhead -count=1
	$(GO) run ./cmd/prefix-bench $(SMOKE_ARGS) \
		-baseline testdata/bench-smoke-baseline.json -regress-pct 50

# Print each benchmark's events/sec and miss-rate trends across the
# committed BENCH_*.json snapshots (no benchmarks are run).
bench-trajectory:
	$(GO) run ./cmd/prefix-trajectory

# Explainability gate: attribution must be purely observational — the
# smoke suite's report is byte-identical with and without -attrib (the
# attribution-only tests assert the same for the full paper tables) —
# and prefix-explain must produce a ledger-backed document per
# benchmark. Artifacts land in explain-out/ for CI upload.
explain-smoke:
	@rm -rf explain-out && mkdir -p explain-out
	$(GO) run ./cmd/prefix-bench $(SMOKE_ARGS) > explain-out/plain.txt
	$(GO) run ./cmd/prefix-bench $(SMOKE_ARGS) -attrib > explain-out/attrib.txt
	@if cmp -s explain-out/plain.txt explain-out/attrib.txt; then \
		echo "explain-smoke: -attrib report is byte-identical to the plain report"; \
	else \
		echo "explain-smoke: -attrib changed the report:"; \
		diff explain-out/plain.txt explain-out/attrib.txt | head -40; exit 1; \
	fi
	$(GO) run ./cmd/prefix-explain -scale bench -jobs 4 -bench mcf,health \
		-ledger-dir explain-out | tee explain-out/explain.txt
	@grep -q "best variant" explain-out/explain.txt || \
		{ echo "explain-smoke: prefix-explain produced no explanation"; exit 1; }

# Streaming parity gate: the smoke suite must produce byte-identical
# reports whether profiling traces are materialized in memory or
# streamed through the bounded-memory spill recorder.
stream-smoke:
	@tmpdir="$$(mktemp -d)"; trap 'rm -rf "$$tmpdir"' EXIT; \
	$(GO) run ./cmd/prefix-bench $(SMOKE_ARGS) > "$$tmpdir/mem.txt" && \
	$(GO) run ./cmd/prefix-bench $(SMOKE_ARGS) -stream -stream-chunk 4096 > "$$tmpdir/stream.txt" || exit 1; \
	if cmp -s "$$tmpdir/mem.txt" "$$tmpdir/stream.txt"; then \
		echo "stream-smoke: streaming report is byte-identical to the in-memory report"; \
	else \
		echo "stream-smoke: streaming report differs from the in-memory report:"; \
		diff "$$tmpdir/mem.txt" "$$tmpdir/stream.txt" | head -40; exit 1; \
	fi

# Report gate: the report paths no other smoke gate reaches through the
# CLI — Table 5 with -capture (long-run analysis), Figure 9 (heatmaps)
# both on its own and from the suite's leela comparison (the full leela
# report), Figure 10 (machine groups), the seed-variance table (every
# variant of every seed, where evals are shared between same-behaviour
# plans), and the narrowest demands: Table 4 (HDS and HALO only, no
# PreFix eval) and Figure 1 (profiles only, no eval) — must print
# exactly the committed stdout: testdata/report-smoke.sha256 holds one
# sha256 per report.
REPORT_SMOKE_ARGS = -scale bench -jobs 2

report-smoke:
	@tmpdir="$$(mktemp -d)"; trap 'rm -rf "$$tmpdir"' EXIT; \
	$(GO) build -o "$$tmpdir/prefix-bench" ./cmd/prefix-bench && \
	"$$tmpdir/prefix-bench" $(REPORT_SMOKE_ARGS) -only table5 -capture -bench mcf,health > "$$tmpdir/table5-capture.txt" && \
	"$$tmpdir/prefix-bench" $(REPORT_SMOKE_ARGS) -only figure9 > "$$tmpdir/figure9.txt" && \
	"$$tmpdir/prefix-bench" $(REPORT_SMOKE_ARGS) -only figure10 > "$$tmpdir/figure10.txt" && \
	"$$tmpdir/prefix-bench" $(REPORT_SMOKE_ARGS) -only variance -seeds 3 -bench roms,health,mcf > "$$tmpdir/variance.txt" && \
	"$$tmpdir/prefix-bench" $(REPORT_SMOKE_ARGS) -bench leela > "$$tmpdir/leela-report.txt" && \
	"$$tmpdir/prefix-bench" $(REPORT_SMOKE_ARGS) -only table4 > "$$tmpdir/table4.txt" && \
	"$$tmpdir/prefix-bench" $(REPORT_SMOKE_ARGS) -only figure1 > "$$tmpdir/figure1.txt" || exit 1; \
	if (cd "$$tmpdir" && sha256sum -c --quiet "$(CURDIR)/testdata/report-smoke.sha256"); then \
		echo "report-smoke: table5 -capture, figure9, figure10, variance, leela full, table4 and figure1 reports match testdata/report-smoke.sha256"; \
	else \
		echo "report-smoke: a report differs from its committed digest"; exit 1; \
	fi

# Fuzz smoke: plain `go test` runs only each fuzz target's seed corpus;
# this runs every target for 10s of generated inputs. `go test -fuzz`
# takes one target in one package per invocation, hence the loop over
# package:target pairs. A failing input is written under the package's
# testdata/fuzz/ for replay.
FUZZ_TARGETS = ./internal/trace:FuzzRead ./internal/trace:FuzzAnalyzerRecorder \
	./internal/simalloc:FuzzHeapMatchesReference ./internal/hds:FuzzLCSKernel \
	./internal/prefix:FuzzReadPlan ./internal/mem:FuzzLiveIndex \
	./internal/benchstore:FuzzReadBaseline ./internal/prefix:FuzzReadLedger \
	./internal/prefix:FuzzAllocatorMatchesReference \
	./internal/trace:FuzzAnalyzerMatchesReference

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz-smoke: $$name in $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s $$pkg || exit 1; \
	done

clean:
	$(GO) clean ./...
