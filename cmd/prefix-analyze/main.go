// Command prefix-analyze consumes a trace written by prefix-trace, runs
// the full profile analysis (hot objects, hot data streams, Algorithm 1
// reconstitution, context inference with counter sharing) and writes the
// resulting PreFix plan as JSON.
//
// Usage:
//
//	prefix-analyze -trace mcf.trace -o mcf.plan.json
//	prefix-analyze -trace mcf.trace -variant hds -miner sequitur -v
//	prefix-analyze -trace mcf.trace -ledger mcf.ledger.json  # record every decision
//	prefix-analyze -trace mcf.trace -trace-out phases.json -metrics-out plan.prom
//
// The analysis decodes the trace file as a stream without materializing
// the event slice, so traces far larger than memory are fine.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"prefix/internal/obsflags"
	core "prefix/internal/prefix"
	"prefix/internal/report"
	"prefix/internal/trace"
)

// errUsage marks bad invocations; main exits 2 for them, matching flag
// parsing errors.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "prefix-analyze:", err)
	os.Exit(1)
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("prefix-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in      = fs.String("trace", "", "input trace file (required)")
		out     = fs.String("o", "", "output plan JSON (default: stdout)")
		bench   = fs.String("bench", "unknown", "benchmark name recorded in the plan")
		variant = fs.String("variant", "hds+hot", "placement variant: hot, hds, hds+hot")
		miner   = fs.String("miner", "lcs", "hot-data-stream miner: lcs or sequitur")
		summary = fs.Bool("summary", false, "print the analysis summary (OHDS/RHDS) to stderr")
		ledger  = fs.String("ledger", "", "record every planning decision (classification, sharing, recycling, placement) and write the ledger JSON to this file")
		obsf    = obsflags.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if *in == "" {
		fs.Usage()
		return errUsage
	}

	var v core.Variant
	switch *variant {
	case "hot":
		v = core.VariantHot
	case "hds":
		v = core.VariantHDS
	case "hds+hot":
		v = core.VariantHDSHot
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	cfg := core.DefaultPlanConfig(*bench, v)
	switch *miner {
	case "lcs":
		cfg.Miner = core.MinerLCS
	case "sequitur":
		cfg.Miner = core.MinerSequitur
	default:
		return fmt.Errorf("unknown miner %q", *miner)
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

	root := sess.Tracer.Start("analyze " + *bench)
	perfScope := sess.Perf.Begin("analyze", root)
	defer perfScope.End()

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	anSpan := root.Child("analyze")
	var a *trace.Analysis
	sr, err := trace.NewStreamReader(f)
	if err == nil {
		a, err = trace.AnalyzeSource(sr)
	}
	f.Close()
	if err != nil {
		anSpan.End()
		return fmt.Errorf("%s: %w", *in, err)
	}
	anSpan.Set("objects", len(a.Objects))
	anSpan.Set("heap_accesses", a.HeapAccesses)
	anSpan.End()

	perfScope.AddEvents(uint64(a.Events))

	planSpan := root.Child("plan " + v.String())
	cfg.Trace = planSpan
	if *ledger != "" {
		cfg.Ledger = core.NewLedger()
	}
	plan, sum, err := core.BuildPlan(a, cfg)
	planSpan.End()
	if err != nil {
		return err
	}

	if *ledger != "" {
		lf, lerr := os.Create(*ledger)
		if lerr != nil {
			return lerr
		}
		if lerr := cfg.Ledger.WriteJSON(lf); lerr != nil {
			lf.Close()
			return lerr
		}
		if lerr := lf.Close(); lerr != nil {
			return lerr
		}
		fmt.Fprintf(stderr, "decision ledger (%d decisions) written to %s\n", cfg.Ledger.Len(), *ledger)
	}

	if reg := sess.Metrics; reg != nil {
		kv := []string{"benchmark", *bench, "variant", v.String()}
		reg.Counter("prefix_analyze_trace_events_total", kv...).Add(uint64(a.Events))
		reg.Counter("prefix_analyze_heap_accesses_total", kv...).Add(a.HeapAccesses)
		reg.Gauge("prefix_analyze_objects", kv...).Set(float64(len(a.Objects)))
		plan.Publish(reg, kv...)
	}

	if *summary {
		fmt.Fprintf(stderr, "trace: %d events, %d objects, %d heap accesses\n",
			a.Events, len(a.Objects), a.HeapAccesses)
		fmt.Fprintf(stderr, "hot: %d objects covering %.1f%% of heap accesses, %d in streams\n",
			sum.HotObjects, sum.CoveragePct, sum.HotInHDS)
		fmt.Fprintf(stderr, "context: %s, %d sites, %d counters\n",
			plan.KindsString(), plan.NumSites(), plan.NumCounters())
		fmt.Fprintf(stderr, "region: %d bytes, %d placed objects\n",
			plan.RegionSize, plan.PlacedObjects)
		ohds := sum.OHDS
		if len(ohds) > 8 {
			ohds = ohds[:8]
		}
		report.Figure2(stderr, ohds, sum.Recon)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := plan.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		// A close error on the output file means a truncated plan; report it.
		return f.Close()
	}
	return plan.WriteJSON(stdout)
}
