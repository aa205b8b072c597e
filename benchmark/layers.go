package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"prefix/internal/baselines"
	"prefix/internal/hds"
	"prefix/internal/hotness"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/obs"
	"prefix/internal/pipeline"
	"prefix/internal/prefix"
	"prefix/internal/report"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// This file is the traced replica: it does what prefix-bench does for a
// workload, but through the layers' exported calls, each wrapped in a
// span the benchmark owns. Nothing inside the program is traced
// (pipeline.Options.Tracer and Perf stay nil), so the simulated results
// and the rendered artifact are the CLI's byte for byte.

// replica is one workload's prefix-bench run, as the replica needs it.
type replica struct {
	opt     pipeline.Options
	only    string
	benches []string
	seeds   int
	// bookkeeping is the time the traced run spent keeping its spans:
	// opening and closing them and reading the allocation counters.
	bookkeeping time.Duration
}

// newReplica reads the prefix-bench flags a workload uses. Analysis is
// always serial here: the sharded path is the CLI default, and it gives
// identical results, so the difference shows as cli_gap_s.
func newReplica(args []string) (*replica, error) {
	fs := flag.NewFlagSet("prefix-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	scale := fs.String("scale", "long", "")
	fs.Int("jobs", 1, "")
	only := fs.String("only", "", "")
	seeds := fs.Int("seeds", 0, "")
	bench := fs.String("bench", "", "")
	capture := fs.Bool("capture", false, "")
	stream := fs.Bool("stream", false, "")
	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("replica: unexpected arguments %q", fs.Args())
	}
	switch *only {
	case "", "table5":
	case "variance":
		if *seeds < 1 {
			return nil, fmt.Errorf("replica: -only variance needs -seeds")
		}
	default:
		return nil, fmt.Errorf("replica: -only %s is not replicated", *only)
	}
	names, err := workloads.ResolveList(*bench)
	if err != nil {
		return nil, err
	}
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = *scale == "bench"
	opt.CaptureLongRun = *capture
	opt.Stream = *stream
	return &replica{opt: opt, only: *only, benches: names, seeds: *seeds}, nil
}

// call runs f as one layer call: a child span of parent named after the
// layer, carrying the heap bytes the call allocated. Under a nil parent
// (the untraced run) it is a plain call.
func (r *replica) call(parent *obs.Span, name string, f func(s *obs.Span)) {
	if parent == nil {
		f(nil)
		return
	}
	t0 := time.Now()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := parent.Child(name)
	t1 := time.Now()
	f(s)
	t2 := time.Now()
	s.End()
	runtime.ReadMemStats(&after)
	s.Set("alloc_bytes", after.TotalAlloc-before.TotalAlloc)
	r.bookkeeping += time.Since(t0) - t2.Sub(t1)
}

// run renders the workload's artifact exactly as prefix-bench prints it.
func (r *replica) run(root *obs.Span, w io.Writer) error {
	if r.only == "variance" {
		vs, err := r.variance(root)
		if err != nil {
			return err
		}
		r.call(root, "report.render", func(*obs.Span) { err = report.VarianceTable(w, vs) })
		return err
	}
	cmps, err := r.suite(root)
	if err != nil {
		return err
	}
	if r.only == "table5" {
		return r.render(root, w, func(w io.Writer) error { return report.Table5(w, cmps) })
	}
	return r.paper(root, w, cmps)
}

// render runs one report emitter followed by the blank line
// prefix-bench prints after every artifact.
func (r *replica) render(parent *obs.Span, w io.Writer, f func(io.Writer) error) error {
	var err error
	r.call(parent, "report.render", func(*obs.Span) {
		if err = f(w); err == nil {
			_, err = fmt.Fprintln(w)
		}
	})
	return err
}

// paper emits every artifact of a plain prefix-bench run, in its order.
// The Figure 9 and Figure 10 pipelines are called as black boxes.
func (r *replica) paper(root *obs.Span, w io.Writer, cmps []*pipeline.Comparison) error {
	figure2 := func(w io.Writer) error {
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
		_, err := fmt.Fprintln(w, "Figure 2: no benchmark produced multi-stream OHDS at this scale")
		return err
	}
	cmpsOf := func(f func(io.Writer, []*pipeline.Comparison) error) func(io.Writer) error {
		return func(w io.Writer) error { return f(w, cmps) }
	}
	for _, f := range []func(io.Writer) error{
		cmpsOf(report.Figure1), figure2, cmpsOf(report.Table2), cmpsOf(report.Table3),
		cmpsOf(report.Table4), cmpsOf(report.Table5), cmpsOf(report.Table6),
	} {
		if err := r.render(root, w, f); err != nil {
			return err
		}
	}

	fig9 := root.Child("figure9")
	var base, best *trace.Trace
	var err error
	r.call(fig9, "pipeline.figure9", func(*obs.Span) {
		base, best, _, err = pipeline.TraceBaselineAndBest("leela", r.opt)
	})
	if err != nil {
		fig9.End()
		return err
	}
	var hb, ho *report.Heatmap
	r.call(fig9, "report.heatmap", func(*obs.Span) {
		hb = report.BuildHeatmap(base, 120, 80)
		ho = report.BuildHeatmap(best, 120, 80)
	})
	err = r.render(fig9, w, func(w io.Writer) error { report.Figure9(w, "leela", hb, ho); return nil })
	fig9.End()
	if err != nil {
		return err
	}

	fig10 := root.Child("figure10")
	for _, name := range []string{"mysql", "mcf"} {
		var results []pipeline.MTResult
		r.call(fig10, "pipeline.figure10", func(*obs.Span) {
			results, err = pipeline.RunMultithreadedJobs(name, []int{1, 2, 4, 8, 16}, r.opt, 1)
		})
		if err == nil {
			err = r.render(fig10, w, func(w io.Writer) error { return report.Figure10(w, name, results) })
		}
		if err != nil {
			fig10.End()
			return err
		}
	}
	fig10.End()

	for _, f := range []func(io.Writer, []*pipeline.Comparison) error{
		report.Figure11, report.Figure12, report.Figure13, report.Figure14,
	} {
		if err := r.render(root, w, cmpsOf(f)); err != nil {
			return err
		}
	}
	return nil
}

// evalConfig is the evaluation input's configuration.
func (r *replica) evalConfig(spec workloads.Spec) workloads.Config {
	if r.opt.UseBenchScale {
		return spec.Bench
	}
	return spec.Long
}

// suite replicates pipeline.RunSuite, one benchmark after another.
func (r *replica) suite(root *obs.Span) ([]*pipeline.Comparison, error) {
	cmps := make([]*pipeline.Comparison, len(r.benches))
	for i, name := range r.benches {
		spec, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		span := root.Child("benchmark " + name)
		prof, err := r.profile(span, spec)
		if err == nil {
			cmps[i], err = r.compare(span, spec, r.evalConfig(spec), prof)
		}
		span.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return cmps, nil
}

// variance replicates pipeline.RunSuiteVariance on one worker: jobs run
// seed-major, each benchmark's profile is collected by its first seed
// and shared by the rest.
func (r *replica) variance(root *obs.Span) ([]*pipeline.Variance, error) {
	specs := make([]workloads.Spec, len(r.benches))
	profs := make([]*pipeline.Profile, len(r.benches))
	out := make([]*pipeline.Variance, len(r.benches))
	for i, name := range r.benches {
		spec, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
		out[i] = &pipeline.Variance{Benchmark: name, Runs: r.seeds, Deltas: make([]float64, r.seeds)}
	}
	for si := range r.seeds {
		for bi, spec := range specs {
			name := r.benches[bi]
			if si == 0 {
				span := root.Child("profile " + name)
				prof, err := r.profile(span, spec)
				span.End()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				profs[bi] = prof
			}
			cfg := r.evalConfig(spec)
			cfg.Seed += uint64(si) * 1_000_003
			span := root.Child(fmt.Sprintf("seed %d %s", si, name))
			cmp, err := r.compare(span, spec, cfg, profs[bi])
			span.End()
			if err != nil {
				return nil, fmt.Errorf("%s: seed %d: %w", name, si, err)
			}
			out[bi].Deltas[si] = cmp.BestResult().TimeDeltaPct(cmp.Baseline)
		}
	}
	for _, v := range out {
		for si, d := range v.Deltas {
			v.MeanPct += d
			if si == 0 || d < v.MinPct {
				v.MinPct = d
			}
			if si == 0 || d > v.MaxPct {
				v.MaxPct = d
			}
		}
		v.MeanPct /= float64(r.seeds)
	}
	return out, nil
}

// profile replicates the pipeline's profile collection: the profiling
// run, analysis, hot-object selection and both miners.
func (r *replica) profile(parent *obs.Span, spec workloads.Spec) (*pipeline.Profile, error) {
	var (
		a       *trace.Analysis
		metrics machine.Metrics
		stats   trace.RecorderStats
		err     error
	)
	if r.opt.Stream {
		a, metrics, stats, err = r.streamProfile(parent, spec)
	} else {
		var tr *trace.Trace
		r.call(parent, "machine.profile", func(s *obs.Span) {
			rec := trace.NewRecorder()
			m := machine.New(baselines.NewBaseline(r.opt.Cache.Cost), r.opt.Cache, machine.WithRecorder(rec))
			spec.Program.Run(m, spec.Profile)
			metrics = m.Finish()
			tr, stats = rec.Trace(), rec.Stats()
			s.Set("events", stats.Events)
		})
		r.call(parent, "trace.analyze", func(*obs.Span) { a = trace.Analyze(tr) })
	}
	if err != nil {
		return nil, fmt.Errorf("streaming profile: %w", err)
	}
	if a.HeapAccesses == 0 {
		return nil, fmt.Errorf("profiling run produced no heap accesses")
	}
	cfg := r.opt.Plan
	cfg.Benchmark = spec.Program.Name()
	var hot *hotness.Set
	r.call(parent, "hotness.select", func(s *obs.Span) {
		hot = prefix.SelectHot(a, cfg)
		s.Set("hot_objects", len(hot.Objects))
		s.Set("coverage_pct", hot.CoveragePct())
	})
	var refs []mem.ObjectID
	r.call(parent, "hds.collapse", func(s *obs.Span) {
		refs = hds.CollapseRefs(a.Refs, hot.IDs)
		s.Set("refs", len(refs))
	})
	var lcs, seq []hds.Stream
	r.call(parent, "hds.lcs", func(s *obs.Span) {
		lcs = weigh(hds.MineLCS(refs, cfg.HDS), hot)
		s.Set("streams", len(lcs))
	})
	r.call(parent, "hds.sequitur", func(*obs.Span) { seq = weigh(hds.MineSequitur(refs, cfg.HDS), hot) })
	return &pipeline.Profile{
		Analysis:        a,
		Hot:             hot,
		StreamsLCS:      lcs,
		StreamsSequitur: seq,
		Metrics:         metrics,
		Stats:           stats,
	}, nil
}

// streamProfile is the bounded-memory profiling path: the run spills
// into a temporary chunked trace file that is then analyzed as a stream.
func (r *replica) streamProfile(parent *obs.Span, spec workloads.Spec) (a *trace.Analysis, metrics machine.Metrics, stats trace.RecorderStats, err error) {
	f, err := os.CreateTemp(r.opt.StreamDir, "prefix-spill-*.pfxt")
	if err != nil {
		return nil, metrics, stats, err
	}
	defer func() {
		f.Close()
		os.Remove(f.Name())
	}()
	r.call(parent, "machine.profile", func(s *obs.Span) {
		var rec *trace.SpillRecorder
		if rec, err = trace.NewSpillRecorder(f, r.opt.StreamChunkEvents); err != nil {
			return
		}
		m := machine.New(baselines.NewBaseline(r.opt.Cache.Cost), r.opt.Cache, machine.WithRecorder(rec))
		spec.Program.Run(m, spec.Profile)
		metrics = m.Finish()
		err = rec.Close()
		stats = rec.Stats()
		s.Set("events", stats.Events)
	})
	if err != nil {
		return nil, metrics, stats, err
	}
	r.call(parent, "trace.analyze", func(*obs.Span) {
		if _, err = f.Seek(0, io.SeekStart); err != nil {
			return
		}
		var sr *trace.StreamReader
		if sr, err = trace.NewStreamReader(f); err == nil {
			a, err = trace.AnalyzeSource(sr)
		}
	})
	return a, metrics, stats, err
}

func weigh(streams []hds.Stream, hot *hotness.Set) []hds.Stream {
	accesses := make(map[mem.ObjectID]uint64, len(hot.Objects))
	for _, o := range hot.Objects {
		accesses[o.ID] = o.Accesses
	}
	return hds.WeighByAccesses(streams, accesses)
}

// compare replicates the pipeline's strategy comparison for one
// evaluation input: the three baselines, then plan and run each PreFix
// variant, then (with -capture) the long-run capture of the best one.
func (r *replica) compare(parent *obs.Span, spec workloads.Spec, in workloads.Config, prof *pipeline.Profile) (*pipeline.Comparison, error) {
	name := spec.Program.Name()
	cost := r.opt.Cache.Cost
	cmp := &pipeline.Comparison{
		Benchmark: name,
		Profile:   prof,
		PreFix:    make(map[prefix.Variant]pipeline.RunResult),
		Plans:     make(map[prefix.Variant]*prefix.Plan),
		Summaries: make(map[prefix.Variant]*prefix.Summary),
	}
	var hotSet baselines.HotSet
	r.call(parent, "baselines.plan", func(*obs.Span) { hotSet = baselines.HotSetOf(prof.Hot) })
	cmp.Baseline = r.eval(parent, "eval.baseline", spec.Program, in, baselines.NewBaseline(cost), false)

	var sites []mem.SiteID
	r.call(parent, "baselines.plan", func(*obs.Span) { sites = baselines.HDSSites(prof.Analysis, prof.StreamsSequitur) })
	cmp.HDS = r.eval(parent, "eval.hds", spec.Program, in, baselines.NewHDS(sites, hotSet, cost), false)

	var halo baselines.HALOConfig
	r.call(parent, "baselines.plan", func(*obs.Span) { halo = baselines.PlanHALO(prof.Analysis, prof.Hot, prof.StreamsLCS) })
	cmp.HALO = r.eval(parent, "eval.halo", spec.Program, in, baselines.NewHALO(halo, hotSet, cost), false)

	for _, v := range r.opt.Variants {
		cfg := r.opt.Plan
		cfg.Benchmark = name
		cfg.Variant = v
		var (
			plan *prefix.Plan
			sum  *prefix.Summary
			err  error
		)
		r.call(parent, "prefix.plan", func(*obs.Span) { plan, sum, err = prefix.BuildPlan(prof.Analysis, cfg) })
		if err != nil {
			return nil, fmt.Errorf("%v: %w", v, err)
		}
		cmp.Plans[v], cmp.Summaries[v] = plan, sum
		cmp.PreFix[v] = r.eval(parent, "eval.prefix", spec.Program, in, prefix.NewAllocator(plan, cost), false)
	}
	best := r.opt.Variants[0]
	for _, v := range r.opt.Variants[1:] {
		if cmp.PreFix[v].Metrics.Cycles < cmp.PreFix[best].Metrics.Cycles {
			best = v
		}
	}
	cmp.Best = best
	if r.opt.CaptureLongRun {
		cmp.LongRun = r.longRun(parent, spec, in, cmp.Plans[best])
	}
	return cmp, nil
}

// eval runs the evaluation input under one allocator: one machine run,
// then the allocator's own accounting.
func (r *replica) eval(parent *obs.Span, layer string, prog workloads.Program, in workloads.Config, alloc machine.Allocator, record bool) pipeline.RunResult {
	var res pipeline.RunResult
	r.call(parent, layer, func(s *obs.Span) {
		var opts []machine.Option
		var rec *trace.Recorder
		if record {
			rec = trace.NewRecorder()
			opts = append(opts, machine.WithRecorder(rec))
		}
		m := machine.New(alloc, r.opt.Cache, opts...)
		prog.Run(m, in)
		res = pipeline.RunResult{Strategy: alloc.Name(), Metrics: m.Finish()}
		if rec != nil {
			res.Trace = rec.Trace()
		}
		switch a := alloc.(type) {
		case *baselines.Baseline:
			res.PeakBytes = a.PeakBytes()
		case *baselines.HDSAlloc:
			res.PeakBytes = a.PeakBytes()
			p := a.Pollution()
			res.Pollution = &p
		case *baselines.HALO:
			res.PeakBytes = a.PeakBytes()
			p := a.Pollution()
			res.Pollution = &p
		case *prefix.Allocator:
			res.PeakBytes = a.PeakBytes()
			c := a.Capture()
			res.Capture = &c
		}
		s.Set("events", res.Metrics.Events())
	})
	return res
}

// longRun replicates the Table 5 long-run capture: re-run the best plan
// with recording, analyze that trace and mine its own streams.
func (r *replica) longRun(parent *obs.Span, spec workloads.Spec, in workloads.Config, plan *prefix.Plan) *pipeline.LongRunCapture {
	span := parent.Child("long-run-capture")
	defer span.End()
	res := r.eval(span, "machine.longrun", spec.Program, in, prefix.NewAllocator(plan, r.opt.Cache.Cost), true)
	var a *trace.Analysis
	r.call(span, "trace.analyze_longrun", func(*obs.Span) { a = trace.Analyze(res.Trace) })
	cfg := r.opt.Plan
	cfg.Benchmark = spec.Program.Name()
	var hot *hotness.Set
	r.call(span, "hotness.select_longrun", func(*obs.Span) { hot = prefix.SelectHot(a, cfg) })
	var refs []mem.ObjectID
	r.call(span, "hds.collapse_longrun", func(*obs.Span) { refs = hds.CollapseRefs(a.Refs, hot.IDs) })
	var streams []hds.Stream
	r.call(span, "hds.lcs_longrun", func(*obs.Span) { streams = hds.MineLCS(refs, cfg.HDS) })

	inStream := hds.Objects(streams)
	region := plan.Region()
	lr := &pipeline.LongRunCapture{}
	var regionAccesses uint64
	for _, o := range a.Objects {
		if !region.Contains(o.Addr) {
			continue
		}
		lr.CapturedObjects++
		regionAccesses += o.Accesses
		if hot.IDs[o.ID] {
			lr.HotObjects++
			if inStream[o.ID] {
				lr.HDSObjects++
			}
		}
	}
	if a.HeapAccesses > 0 {
		lr.HeapAccessPct = 100 * float64(regionAccesses) / float64(a.HeapAccesses)
	}
	return lr
}

// layerTotals folds a finished span tree into the per-layer metrics.
// Layer spans are the ones named "<layer>.<call>"; the others (one per
// benchmark, seed or figure) only group them.
func layerTotals(root *obs.Span) map[string]float64 {
	total := root.Duration().Seconds()
	secs := map[string]float64{}    // by span name
	calls := map[string]float64{}   // by span name
	allocMB := map[string]float64{} // by layer
	args := map[string]float64{}    // "<span name>.<arg>" summed
	var self float64
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		d := s.Duration().Seconds()
		secs[s.Name] += d
		calls[s.Name]++
		children := s.Children()
		if layer, _, ok := strings.Cut(s.Name, "."); ok {
			own := d
			for _, c := range children {
				own -= c.Duration().Seconds()
			}
			self += own
			keys, values := s.Args()
			for i, k := range keys {
				v := toFloat(values[i])
				if k == "alloc_bytes" {
					allocMB[layer] += v / (1 << 20)
					continue
				}
				args[s.Name+"."+k] += v
			}
		}
		for _, c := range children {
			walk(c)
		}
	}
	for _, c := range root.Children() {
		walk(c)
	}
	pct := func(v float64) float64 { return 100 * v / total }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	evalS := secs["eval.baseline"] + secs["eval.hds"] + secs["eval.halo"] + secs["eval.prefix"]
	evalEvents := args["eval.baseline.events"] + args["eval.hds.events"] + args["eval.halo.events"] + args["eval.prefix.events"]
	refs, streams := args["hds.collapse.refs"], args["hds.lcs.streams"]
	m := map[string]float64{
		"hds.lcs_s":                   secs["hds.lcs"],
		"hds.sequitur_s":              secs["hds.sequitur"],
		"hds.collapse_s":              secs["hds.collapse"],
		"prefix.plan_s":               secs["prefix.plan"],
		"prefix.plan_calls":           calls["prefix.plan"],
		"hds.refs":                    refs,
		"hds.streams_lcs":             streams,
		"hds.lcs_streams_per_mref":    ratio(streams*1e6, refs),
		"hds.alloc_mb":                allocMB["hds"],
		"prefix.alloc_mb":             allocMB["prefix"],
		"eval.baseline_s":             secs["eval.baseline"],
		"eval.hds_s":                  secs["eval.hds"],
		"eval.halo_s":                 secs["eval.halo"],
		"eval.prefix_s":               secs["eval.prefix"],
		"machine.eval_events":         evalEvents,
		"machine.eval_mevents_per_s":  ratio(evalEvents/1e6, evalS),
		"machine.alloc_mb":            allocMB["machine"] + allocMB["eval"],
		"machine.profile_s":           secs["machine.profile"],
		"machine.profile_events":      args["machine.profile.events"],
		"trace.analyze_s":             secs["trace.analyze"],
		"trace.analyze_mevents_per_s": ratio(args["machine.profile.events"]/1e6, secs["trace.analyze"]),
		"capture.longrun_pct":         pct(secs["long-run-capture"]),
		"machine.longrun_events":      args["machine.longrun.events"],
		"trace.alloc_mb":              allocMB["trace"],
		"pipeline.figure9_pct":        pct(secs["figure9"]),
		"pipeline.figure10_pct":       pct(secs["figure10"]),
		"report.render_s":             secs["report.render"] + secs["report.heatmap"],
		"hotness.select_s":            secs["hotness.select"],
		"hotness.hot_objects":         args["hotness.select.hot_objects"],
		"baselines.plan_s":            secs["baselines.plan"],
		"traced_total_s":              total,
		"coverage_pct":                pct(self),
	}
	if n := calls["hotness.select"]; n > 0 {
		m["hotness.coverage_pct"] = args["hotness.select.coverage_pct"] / n
	}
	return m
}

// toFloat reads a numeric span annotation.
func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// layerRun is the -layer-run child: it runs the replica once, traced or
// not, and reports its in-process time, the sha256 of what it rendered
// and (traced) the per-layer metrics. The span tree goes to traceOut.
func layerRun(w workload, traced bool, traceOut string) (layerResult, error) {
	rep, err := newReplica(w.Args)
	if err != nil {
		return layerResult{}, err
	}
	var buf bytes.Buffer
	runtime.GC()
	if !traced {
		start := time.Now()
		err = rep.run(nil, &buf)
		return layerResult{TotalS: time.Since(start).Seconds(), Digest: digest(buf.Bytes())}, err
	}
	t := obs.NewTracer()
	root := t.Start("layer-run " + w.Name)
	err = rep.run(root, &buf)
	root.End()
	if err != nil {
		return layerResult{}, err
	}
	if traceOut != "" {
		if err := t.WriteTraceFile(traceOut); err != nil {
			return layerResult{}, err
		}
	}
	m := layerTotals(root)
	// Tracing's cost is measured directly: a traced and an untraced run
	// differ by several percent from host noise alone, far more than
	// the spans cost.
	m["trace_overhead_pct"] = 100 * rep.bookkeeping.Seconds() / (root.Duration() - rep.bookkeeping).Seconds()
	return layerResult{TotalS: root.Duration().Seconds(), Digest: digest(buf.Bytes()), Metrics: m}, nil
}

// layerResult is what a -layer-run child prints.
type layerResult struct {
	TotalS  float64            `json:"total_s"`
	Digest  string             `json:"digest"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}
