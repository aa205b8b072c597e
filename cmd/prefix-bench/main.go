// Command prefix-bench regenerates the paper's evaluation: every table
// and figure of the PreFix paper (CGO 2025), computed over the synthetic
// benchmark suite and the full simulation pipeline.
//
// Usage:
//
//	prefix-bench                      # everything, long-run scale
//	prefix-bench -only table3         # one table/figure
//	prefix-bench -bench mcf,health    # a subset of benchmarks
//	prefix-bench -scale bench         # faster, reduced-scale runs
//	prefix-bench -jobs 8              # parallel benchmark/seed evaluation
//	prefix-bench -heatmap-dir out/    # also write Figure 9 CSVs
//	prefix-bench -attrib              # per-site attribution + decision ledgers
//	prefix-bench -attrib -only attribution   # just the attribution table
//
// Observability:
//
//	prefix-bench -metrics-out run.prom         # Prometheus text (or .json)
//	prefix-bench -trace-out phases.json -v     # chrome://tracing + summary
//	prefix-bench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Run history and regression gating:
//
//	prefix-bench -record                       # snapshot BENCH_<ts>.json
//	prefix-bench -baseline BENCH_x.json        # diff against a snapshot,
//	                                           # exit non-zero on regression
//	prefix-bench -baseline b.json -regress-pct 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"prefix/internal/benchstore"
	"prefix/internal/obsflags"
	"prefix/internal/pipeline"
	"prefix/internal/report"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// artifact is one -only value. needs is what it reads from each
// benchmark's comparison: the strategies simulated for it. render is set
// for the artifacts rendered from the comparison suite; -record and
// -baseline snapshot the suite those run.
type artifact struct {
	name   string
	needs  pipeline.Strategies
	render func(w io.Writer, cmps []*pipeline.Comparison) error
}

const baselineAndPreFix = pipeline.StrategyBaseline | pipeline.StrategyPreFix

// artifacts is every value -only accepts, in report order.
var artifacts = []artifact{
	{"figure1", 0, report.Figure1},
	{"figure2", pipeline.StrategyPreFix, figure2},
	{"table2", pipeline.StrategyPreFix, report.Table2},
	{"table3", pipeline.AllStrategies, report.Table3},
	{"table4", pipeline.StrategyHDS | pipeline.StrategyHALO, report.Table4},
	{"table5", pipeline.StrategyPreFix, report.Table5},
	{"table6", baselineAndPreFix, report.Table6},
	{"figure9", baselineAndPreFix, nil}, // leela's comparison, then two analyzed runs
	{"figure10", 0, nil},                // its own multithreaded runs
	{"figure11", baselineAndPreFix, report.Figure11},
	{"figure12", baselineAndPreFix, report.Figure12},
	{"figure13", baselineAndPreFix, report.Figure13},
	{"figure14", pipeline.StrategyPreFix, report.Figure14},
	{"attribution", baselineAndPreFix, attributionTable},
	{"variance", baselineAndPreFix, nil}, // the seed sweep
}

// findArtifact returns the artifact -only names, case-insensitively.
func findArtifact(name string) (artifact, bool) {
	for _, a := range artifacts {
		if strings.EqualFold(name, a.name) {
			return a, true
		}
	}
	return artifact{}, false
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "prefix-bench:", err)
		os.Exit(1)
	}
}

// args are the flags that decide what a run computes.
type args struct {
	only, scale     string
	seeds, jobs     int
	record          bool
	baseline        string
	regressPct      float64
	stream          bool
	streamChunk     int
	attrib, capture bool
	heatmapDir      string
}

// validate checks every flag combination that can be rejected before
// any benchmark burns cycles.
func (a args) validate() error {
	only := a.only
	art, known := findArtifact(only)
	if only != "" && !known {
		names := make([]string, len(artifacts))
		for i, a := range artifacts {
			names[i] = a.name
		}
		return fmt.Errorf("unknown -only artifact %q (valid: %s)", only, strings.Join(names, ", "))
	}
	if a.scale != "long" && a.scale != "bench" {
		return fmt.Errorf("unknown -scale %q (valid: long, bench)", a.scale)
	}
	if a.jobs < 1 {
		return fmt.Errorf("-jobs must be at least 1 (got %d)", a.jobs)
	}
	if a.seeds < 0 {
		return fmt.Errorf("-seeds must be non-negative (got %d)", a.seeds)
	}
	if art.name == "variance" && a.seeds == 0 {
		return fmt.Errorf("-only variance requires -seeds N (without seeds the sweep has nothing to run)")
	}
	if a.seeds > 0 && only != "" && art.name != "variance" {
		return fmt.Errorf("-seeds only applies when the variance table runs (-only variance or no -only)")
	}
	if a.capture && only != "" && art.name != "table5" {
		return fmt.Errorf("-capture only applies when Table 5 runs (-only table5 or no -only)")
	}
	if a.regressPct < 0 {
		return fmt.Errorf("-regress-pct must be non-negative (got %g)", a.regressPct)
	}
	if a.streamChunk < 0 {
		return fmt.Errorf("-stream-chunk must be non-negative (got %d)", a.streamChunk)
	}
	if a.streamChunk > 0 && !a.stream {
		return fmt.Errorf("-stream-chunk only applies with -stream")
	}
	if a.heatmapDir != "" && only != "" && art.name != "figure9" {
		return fmt.Errorf("-heatmap-dir only applies when Figure 9 runs (-only figure9 or no -only)")
	}
	if art.name == "attribution" && !a.attrib {
		return fmt.Errorf("-only attribution requires -attrib (nothing attributes misses to sites without it)")
	}
	if (a.record || a.baseline != "") && only != "" && art.render == nil {
		return fmt.Errorf("-record/-baseline snapshot the comparison suite; -only %s does not run it (use a table/figure artifact or drop -only)", only)
	}
	return nil
}

// wants reports whether the run emits the named artifact.
func (a args) wants(name string) bool {
	if a.only != "" && !strings.EqualFold(a.only, name) {
		return false
	}
	switch name {
	case "attribution":
		return a.attrib
	case "variance":
		return a.seeds > 0
	}
	return true
}

// demand returns the strategies the emitted artifacts read, which is
// what the run simulates, and whether the comparison suite runs.
// -record and -baseline demand every strategy: the snapshot reads the
// HDS and HALO pollution.
func (a args) demand() (needs pipeline.Strategies, suite bool) {
	if a.record || a.baseline != "" {
		needs, suite = pipeline.AllStrategies, true
	}
	for _, art := range artifacts {
		if a.wants(art.name) {
			needs |= art.needs
			suite = suite || art.render != nil
		}
	}
	return needs, suite
}

func run() (err error) {
	var (
		only        = flag.String("only", "", "emit a single artifact: figure1, figure2, table2..table6, figure9..figure14, attribution, variance")
		benchList   = flag.String("bench", "", "comma-separated benchmark subset (default: all 13)")
		scale       = flag.String("scale", "long", "evaluation scale: long or bench")
		heatmapDir  = flag.String("heatmap-dir", "", "directory for Figure 9 heatmap CSVs")
		capture     = flag.Bool("capture", false, "re-run and analyze each best variant for Table 5 long-run columns (slower)")
		seeds       = flag.Int("seeds", 0, "additionally run each benchmark across N perturbed evaluation seeds and report the variance (the paper averages over 10 runs)")
		jobs        = flag.Int("jobs", pipeline.DefaultJobs(), "run up to N benchmark/seed evaluations concurrently (1 = serial; output is identical at any job count)")
		record      = flag.Bool("record", false, "snapshot this run's per-benchmark results to BENCH_<timestamp>.json")
		recordOut   = flag.String("record-out", "", "write the run snapshot to this file instead of BENCH_<timestamp>.json (implies -record)")
		baseline    = flag.String("baseline", "", "compare this run against a recorded BENCH_*.json and exit non-zero on regression")
		regressPct  = flag.Float64("regress-pct", 5, "fail the -baseline comparison when any tracked metric regresses by more than this percent")
		stream      = flag.Bool("stream", false, "collect profiles through the bounded-memory spill-to-disk streaming path (report output is identical)")
		streamChunk = flag.Int("stream-chunk", 0, "events per spill chunk in -stream mode (0 = default budget)")
		attrib      = flag.Bool("attrib", false, "attribute every miss to its allocation site and record decision ledgers (simulated results are identical; adds the attribution table, the benchstore attrib section, and prefix_attrib_* metrics)")
		obsf        = obsflags.Register(flag.CommandLine)
	)
	flag.Parse()

	if *recordOut != "" {
		*record = true
	}
	a := args{
		only: *only, scale: *scale, seeds: *seeds, jobs: *jobs,
		record: *record, baseline: *baseline, regressPct: *regressPct,
		stream: *stream, streamChunk: *streamChunk,
		attrib: *attrib, capture: *capture, heatmapDir: *heatmapDir,
	}
	if err := a.validate(); err != nil {
		return err
	}
	names, err := workloads.ResolveList(*benchList)
	if err != nil {
		return err
	}

	sess, err := obsf.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()

	needs, runSuite := a.demand()
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = *scale == "bench"
	opt.CaptureLongRun = *capture
	opt.Demand = pipeline.Demanding(needs)
	opt.Progress = sess.Progress()
	opt.Metrics = sess.Metrics
	opt.Tracer = sess.Tracer
	opt.Perf = sess.Perf
	opt.Stream = *stream
	opt.StreamChunkEvents = *streamChunk
	opt.Attribution = *attrib
	// One memo serves the suite, Figure 9 and the variance sweep: each
	// benchmark is profiled and placed once, and its comparison at the
	// evaluation input simulated once.
	memo := pipeline.NewMemo(opt)

	w := os.Stdout
	var cmps []*pipeline.Comparison
	if runSuite {
		cmps, err = memo.Suite(names, *jobs)
		if err != nil {
			return err
		}
	}

	for _, art := range artifacts {
		if a.wants(art.name) {
			if err := emit(w, art, a, memo, opt, names, cmps); err != nil {
				return err
			}
		}
	}

	if *record || *baseline != "" {
		snap, serr := benchstore.FromComparisons(cmps, benchstore.Meta{
			//lint:ignore nodeterminism snapshot provenance metadata; never enters simulated results or the regression gate
			Timestamp: time.Now(),
			GitSHA:    benchstore.GitSHA("."),
			Jobs:      *jobs,
			Scale:     *scale,
		})
		if serr != nil {
			return serr
		}
		if *record {
			path := *recordOut
			if path == "" {
				//lint:ignore nodeterminism output-file timestamp only; -o pins the name when reproducibility matters
				path = benchstore.Filename(time.Now())
			}
			if werr := snap.WriteFile(path); werr != nil {
				return werr
			}
			fmt.Fprintf(os.Stderr, "run snapshot written to %s\n", path)
		}
		if *baseline != "" {
			base, berr := benchstore.ReadFile(*baseline)
			if berr != nil {
				return berr
			}
			if gerr := benchstore.Gate(w, base, snap, *regressPct); gerr != nil {
				return gerr
			}
		}
	}
	return nil
}

// emit writes one artifact: rendered from the suite's comparisons, or,
// for Figure 9 and the variance sweep, from the memo's, or from Figure
// 10's own runs.
func emit(w io.Writer, art artifact, a args, memo *pipeline.Memo, opt pipeline.Options, names []string, cmps []*pipeline.Comparison) error {
	switch art.name {
	case "figure9":
		if err := figure9(w, memo, opt, cmps, art.needs, a.jobs, a.heatmapDir); err != nil {
			return err
		}
	case "figure10":
		for _, name := range []string{"mysql", "mcf"} {
			results, err := pipeline.RunMultithreadedJobs(name, []int{1, 2, 4, 8, 16}, opt, a.jobs)
			if err != nil {
				return err
			}
			if err := report.Figure10(w, name, results); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	case "variance":
		vs, err := memo.Variance(names, a.seeds, a.jobs)
		if err != nil {
			return err
		}
		return report.VarianceTable(w, vs)
	default:
		if err := art.render(w, cmps); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// figure2 walks through the layout determination of the first
// benchmark whose best plan reconstitutes two or more streams.
func figure2(w io.Writer, cmps []*pipeline.Comparison) error {
	for _, c := range cmps {
		if err := c.Need(pipeline.StrategyPreFix); err != nil {
			return err
		}
	}
	for _, c := range cmps {
		s := c.Summaries[c.Best]
		if len(s.OHDS) >= 2 {
			ohds := s.OHDS
			if len(ohds) > 10 {
				ohds = ohds[:10]
			}
			fmt.Fprintf(w, "(reconstitution example from %s)\n", c.Benchmark)
			report.Figure2(w, ohds, s.Recon)
			return nil
		}
	}
	fmt.Fprintln(w, "Figure 2: no benchmark produced multi-stream OHDS at this scale")
	return nil
}

// attributionTable is the -attrib table over the suite's top sites.
func attributionTable(w io.Writer, cmps []*pipeline.Comparison) error {
	return report.AttributionTable(w, cmps, pipeline.ExplainTopSites)
}

// figure9 analyzes leela under baseline and PreFix and summarizes (and
// optionally dumps) the access heatmaps. Leela's comparison, with the
// needs strategies simulated, comes from the memo: the suite's when the
// suite evaluated leela, one evaluated now otherwise.
func figure9(w io.Writer, memo *pipeline.Memo, opt pipeline.Options, cmps []*pipeline.Comparison, needs pipeline.Strategies, jobs int, dir string) error {
	if !slices.ContainsFunc(cmps, func(c *pipeline.Comparison) bool { return c.Benchmark == "leela" }) {
		fmt.Fprintln(os.Stderr, "evaluating leela for figure 9...")
	}
	cmp, err := memo.Comparison("leela", needs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracing leela for figure 9 (best variant: %s)...\n", cmp.Best)
	var hb, ho *report.Heatmap
	err = pipeline.AnalyzeBaselineAndBest(cmp, opt, jobs, func(best bool, a *trace.Analysis) {
		if best {
			ho = report.BuildHeatmapFrom(a, 120, 80)
		} else {
			hb = report.BuildHeatmapFrom(a, 120, 80)
		}
	})
	if err != nil {
		return err
	}
	report.Figure9(w, "leela", hb, ho)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, hm := range []struct {
			name string
			h    *report.Heatmap
		}{{"leela-baseline.csv", hb}, {"leela-prefix.csv", ho}} {
			f, err := os.Create(filepath.Join(dir, hm.name))
			if err != nil {
				return err
			}
			if err := hm.h.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "  CSVs written to %s\n", dir)
	}
	return nil
}
