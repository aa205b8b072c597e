// Command benchmark is the repository benchmark. It builds
// cmd/prefix-bench once, times workloads of it from outside as child
// processes, and breaks each workload down by layer in a separate run
// that replicates it through the layers' exported calls under spans the
// benchmark owns. Run it from the repository root through run.sh:
//
//	sh benchmark/run.sh --workload mine-heavy --seed 1 --seconds 30 --trace 0
//	sh benchmark/run.sh -out a.json [-runs 7]
//	sh benchmark/run.sh -compare a.json b.json
//
// The first form measures one workload for --seconds and prints one JSON
// result line (end-to-end metrics, or with --trace 1 per-layer ones).
// The second runs every workload round-robin -runs times, then one
// traced replica per workload, and writes a summary. The third checks
// two summaries agree within each metric's bound. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "measure this one workload and print one JSON result line")
	seed := fs.Int64("seed", 0, "run seed; prefix-bench takes no input seed, so the inputs are fixed per workload")
	seconds := fs.Int("seconds", 30, "with -workload: how long to measure")
	traceMode := fs.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics from the traced replica")
	runs := fs.Int("runs", 7, "without -workload: interleaved rounds over every workload")
	out := fs.String("out", "", "without -workload: write the summary JSON to this file")
	compare := fs.Bool("compare", false, "compare two summaries: -compare a.json b.json")
	layer := fs.String("layer-run", "", "run the replica of this workload in this process (the traced run's child)")
	traced := fs.Bool("traced", false, "with -layer-run: record spans and per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -layer-run -traced: write the span tree here (Chrome trace-event JSON)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two summary files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *layer != "":
		w, ok := findWorkload(*layer)
		if !ok {
			return fmt.Errorf("unknown workload %q", *layer)
		}
		res, err := layerRun(w, *traced, *traceOut)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}

	b, err := setUp()
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.tmp)
	if *name == "" {
		if *runs < 1 {
			return fmt.Errorf("-runs must be at least 1 (got %d)", *runs)
		}
		return b.suite(*runs, *out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1 (got %d, %d)", *seconds, *traceMode)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d (inputs are fixed per workload)\n", w.Name, *seed)
	if *traceMode == 1 {
		return b.tracedResult(w)
	}
	return b.e2eResult(w, time.Duration(*seconds)*time.Second)
}

// bench is a set-up benchmark: the repository located and prefix-bench
// built.
type bench struct {
	runner
	root string
	self string // this binary, for the traced run's children
}

// runDeadline caps a single -workload run below the 180 s a run may
// take, whatever its children do.
const runDeadline = 170 * time.Second

// setUp finds the repository root (the current directory, or its parent
// when run from benchmark/) and builds prefix-bench into .bench_build.
// The build is not timed.
func setUp() (*bench, error) {
	root := ""
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "prefix-bench", "main.go")); err == nil {
			root, _ = filepath.Abs(dir)
			break
		}
	}
	if root == "" {
		return nil, errors.New("run from the repository root: cmd/prefix-bench not found")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	b := &bench{root: root, self: self}
	b.bin = filepath.Join(build, "prefix-bench")
	cmd := exec.Command("go", "build", "-o", b.bin, "./cmd/prefix-bench")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building prefix-bench: %w", err)
	}
	if b.tmp, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	return b, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON line a -workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(r result) error {
	r.Correct = r.Failed == 0
	return json.NewEncoder(os.Stdout).Encode(r)
}

// e2eValues splits completed samples into one value list per end-to-end
// metric.
func e2eValues(samples []sample) map[string][]float64 {
	v := map[string][]float64{}
	for _, s := range samples {
		if s.wall == 0 {
			continue // failed before the invocation ran
		}
		v["wall_s"] = append(v["wall_s"], s.wall)
		v["cpu_s"] = append(v["cpu_s"], s.cpu)
		v["peak_rss_mb"] = append(v["peak_rss_mb"], s.rssMB)
		v["setup_s"] = append(v["setup_s"], s.setup)
	}
	return v
}

// e2eResult measures w in a closed loop for d: it starts another sample
// while the median sample so far still fits, and reports each metric's
// median over the samples.
func (b *bench) e2eResult(w workload, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	start := time.Now()
	var samples []sample
	var took []float64
	for {
		t0 := time.Now()
		s := b.measure(ctx, w, 120*time.Second)
		took = append(took, time.Since(t0).Seconds())
		samples = append(samples, s)
		logSample(w, s)
		next := time.Duration(medianOf(took) * float64(time.Second))
		if time.Since(start)+next > d || ctx.Err() != nil {
			break
		}
	}
	vals := e2eValues(samples)
	if len(vals["wall_s"]) == 0 {
		return fmt.Errorf("%s: no invocation completed", w.Name)
	}
	r := result{Attempted: len(samples), Metrics: map[string]metricValue{}}
	for _, s := range samples {
		if s.err != nil {
			r.Failed++
		}
	}
	for _, m := range e2eMetrics {
		r.Metrics[m.Name] = metricValue{medianOf(vals[m.Name]), m.Unit}
	}
	return printResult(r)
}

func logSample(w workload, s sample) {
	status := "ok"
	if s.err != nil {
		status = "FAILED: " + s.err.Error()
	}
	fmt.Fprintf(os.Stderr, "benchmark: %-14s wall %.3fs cpu %.3fs rss %.1fMB setup %.2fms  %s\n",
		w.Name, s.wall, s.cpu, s.rssMB, 1e3*s.setup, status)
}

// layers runs the replica of w twice, each in a fresh child process:
// untraced, then traced. Both must render exactly the bytes the CLI
// prints. It returns the per-layer metrics, with the run totals filled
// in from the two runs and cliWall, and every failure. The metrics are
// nil when a child produced none.
func (b *bench) layers(ctx context.Context, w workload, cliWall float64) (map[string]float64, []error) {
	var errs []error
	runChild := func(traced bool) *layerResult {
		args := []string{"-layer-run", w.Name}
		if traced {
			args = append(args, "-traced", "-trace-out", filepath.Join(b.root, ".bench_build", "layers-"+w.Name+".json"))
		}
		var out bytes.Buffer
		s := b.exec(ctx, 180*time.Second, &out, b.self, args...)
		if s.err != nil {
			errs = append(errs, fmt.Errorf("layer run (traced=%v): %w", traced, s.err))
			return nil
		}
		var res layerResult
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			errs = append(errs, fmt.Errorf("layer run (traced=%v): unreadable result %q", traced, out.String()))
			return nil
		}
		if res.Digest != w.Digest {
			errs = append(errs, fmt.Errorf("layer run (traced=%v): render check: replica output sha256 %s, want %s", traced, res.Digest, w.Digest))
		}
		return &res
	}
	untraced, traced := runChild(false), runChild(true)
	if untraced == nil || traced == nil {
		return nil, errs
	}
	m := traced.Metrics
	m["untraced_total_s"] = untraced.TotalS
	m["cli_gap_s"] = cliWall - untraced.TotalS
	return m, errs
}

// tracedResult is a --trace 1 run: one CLI sample (for cli_gap_s), then
// the two replica children.
func (b *bench) tracedResult(w workload) error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	s := b.measure(ctx, w, 120*time.Second)
	logSample(w, s)
	r := result{Attempted: 3, Metrics: map[string]metricValue{}}
	if s.err != nil {
		r.Failed++
	}
	m, errs := b.layers(ctx, w, s.wall)
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "benchmark:", w.Name, err)
	}
	r.Failed += len(errs)
	if m == nil {
		return fmt.Errorf("%s: traced run failed", w.Name)
	}
	for _, lm := range layerMetrics {
		r.Metrics[lm.Name] = metricValue{m[lm.Name], lm.Unit}
	}
	return printResult(r)
}

// suiteReport is the summary a suite run writes.
type suiteReport struct {
	Runs            int                        `json:"runs"`
	NumCPU          int                        `json:"num_cpu"`
	ChildGOMAXPROCS int                        `json:"child_gomaxprocs"`
	Workloads       map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Failures  []string           `json:"failures,omitempty"`
	E2E       map[string]summary `json:"e2e"`
	Layers    map[string]float64 `json:"layers"`
}

// suite runs every workload round-robin for runs rounds, so a stall on
// a shared host spreads across workloads instead of landing on one,
// then one traced replica per workload.
func (b *bench) suite(runs int, out string) error {
	ctx := context.Background()
	samples := make([][]sample, len(workloadTable))
	for round := 1; round <= runs; round++ {
		for i, w := range workloadTable {
			fmt.Fprintf(os.Stderr, "benchmark: round %d/%d ", round, runs)
			s := b.measure(ctx, w, 180*time.Second)
			logSample(w, s)
			samples[i] = append(samples[i], s)
		}
	}
	rep := &suiteReport{Runs: runs, NumCPU: runtime.NumCPU(), ChildGOMAXPROCS: childProcs, Workloads: map[string]*workloadReport{}}
	for i, w := range workloadTable {
		// The two replica children count as attempts, as in tracedResult.
		wr := &workloadReport{Attempted: len(samples[i]) + 2, E2E: map[string]summary{}}
		for _, s := range samples[i] {
			if s.err != nil {
				wr.Failures = append(wr.Failures, s.err.Error())
			}
		}
		vals := e2eValues(samples[i])
		for _, m := range e2eMetrics {
			wr.E2E[m.Name] = summarize(vals[m.Name])
		}
		fmt.Fprintf(os.Stderr, "benchmark: traced replica of %s\n", w.Name)
		m, errs := b.layers(ctx, w, wr.E2E["wall_s"].Median)
		for _, err := range errs {
			wr.Failures = append(wr.Failures, err.Error())
		}
		if m == nil {
			m = map[string]float64{}
		}
		wr.Layers = m
		wr.Failed = len(wr.Failures)
		wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
		rep.Workloads[w.Name] = wr
	}
	printSuite(os.Stdout, rep)
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, wr := range rep.Workloads {
		if wr.Failed > 0 {
			return errors.New("some runs failed (see fail_ratio)")
		}
	}
	return nil
}

func printSuite(f io.Writer, rep *suiteReport) {
	for _, w := range workloadTable {
		wr := rep.Workloads[w.Name]
		fmt.Fprintf(f, "%s: %d attempted, %d failed, fail_ratio %.3g\n", w.Name, wr.Attempted, wr.Failed, wr.FailRatio)
		for _, msg := range wr.Failures {
			fmt.Fprintf(f, "  failure: %s\n", msg)
		}
		for _, m := range e2eMetrics {
			s := wr.E2E[m.Name]
			fmt.Fprintf(f, "  %-12s median %10.5g  p25 %10.5g  p75 %10.5g  min %10.5g  max %10.5g  n=%d %s\n",
				m.Name, s.Median, s.P25, s.P75, s.Min, s.Max, s.N, m.Unit)
		}
		if n := wr.E2E["wall_s"].N; n < 11 {
			fmt.Fprintf(f, "  (n=%d < 11: too few samples for a tail percentile; none reported)\n", n)
		}
		for _, lm := range layerMetrics {
			if v, ok := wr.Layers[lm.Name]; ok {
				fmt.Fprintf(f, "  %-28s %12.6g %s\n", lm.Name, v, lm.Unit)
			}
		}
	}
}

// compareFiles prints, for every workload and end-to-end metric, both
// summaries' medians and quartiles and whether the medians agree within
// the metric's bound. Any disagreement, or a fail ratio that rose, is an
// error.
func compareFiles(f io.Writer, pathA, pathB string) error {
	var a, b suiteReport
	for _, x := range []struct {
		path string
		rep  *suiteReport
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.rep); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	var bad []string
	for _, w := range workloadTable {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			bad = append(bad, w.Name+": missing from a summary")
			continue
		}
		for _, m := range e2eMetrics {
			sa, sb := wa.E2E[m.Name], wb.E2E[m.Name]
			drift := math.Inf(1)
			if sa.Median > 0 {
				drift = (sb.Median - sa.Median) / sa.Median
			}
			verdict := "agree"
			if math.Abs(drift) > m.Bound {
				verdict = "DISAGREE"
				bad = append(bad, w.Name+" "+m.Name)
			}
			fmt.Fprintf(f, "%-14s %-12s a %9.4g [%9.4g, %9.4g]  b %9.4g [%9.4g, %9.4g]  %+6.1f%% (bound %.0f%%)  %s\n",
				w.Name, m.Name, sa.Median, sa.P25, sa.P75, sb.Median, sb.P25, sb.P75, 100*drift, 100*m.Bound, verdict)
		}
		verdict := "agree"
		if wb.FailRatio > wa.FailRatio {
			verdict = "DISAGREE"
			bad = append(bad, w.Name+" fail_ratio")
		}
		fmt.Fprintf(f, "%-14s %-12s a %9.3g  b %9.3g  (bound 0)  %s\n", w.Name, "fail_ratio", wa.FailRatio, wb.FailRatio, verdict)
	}
	if len(bad) > 0 {
		return fmt.Errorf("summaries disagree beyond the bounds: %s", strings.Join(bad, ", "))
	}
	return nil
}
