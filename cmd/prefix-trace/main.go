// Command prefix-trace runs a benchmark under the tracing machine (the
// DynamoRIO stage of the paper's Figure 8 pipeline) and writes the
// allocation/access trace to a file for prefix-analyze.
//
// Usage:
//
//	prefix-trace -bench mcf -o mcf.trace            # profiling input
//	prefix-trace -bench mcf -scale long -o mcf.trace
//	prefix-trace -bench mcf -o mcf.trace -chunk-events 4096
//	prefix-trace -bench mcf -o mcf.trace -text      # human-readable dump
//	prefix-trace -bench mcf -o mcf.trace -metrics-out run.prom -v
//
// The binary trace never materializes: the machine records through the
// spill recorder straight into the output file, holding at most
// -chunk-events events in memory. The file is byte-identical to
// writing the same run's events from memory at that chunk size. -text
// keeps the run in memory and writes one line per event.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/obsflags"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// errUsage marks bad invocations; main exits 2 for them, matching flag
// parsing errors.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "prefix-trace:", err)
	os.Exit(1)
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("prefix-trace", flag.ContinueOnError)
	var (
		bench       = fs.String("bench", "", "benchmark name (required); see -list")
		out         = fs.String("o", "", "output trace file (required)")
		scale       = fs.String("scale", "profile", "run scale: profile, bench or long")
		text        = fs.Bool("text", false, "write a human-readable text dump instead of the binary format")
		chunkEvents = fs.Int("chunk-events", trace.DefaultChunkEvents, "events per chunk of the binary output file, and the trace memory budget")
		list        = fs.Bool("list", false, "list benchmarks and exit")
		attrib      = fs.Bool("attrib", false, "attribute the profiling run's misses to allocation sites and print the top sites (trace output is identical)")
		obsf        = obsflags.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	if *list {
		for _, n := range workloads.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}
	if *bench == "" || *out == "" {
		fs.Usage()
		return errUsage
	}
	if *chunkEvents < 1 {
		return fmt.Errorf("-chunk-events must be positive (got %d)", *chunkEvents)
	}
	spec, err := workloads.Get(*bench)
	if err != nil {
		return err
	}
	cfg := spec.Profile
	switch *scale {
	case "profile":
	case "bench":
		cfg = spec.Bench
	case "long":
		cfg = spec.Long
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}

	// Create the output before burning cycles on the run: an unwritable
	// path must fail immediately, not after the full trace is built.
	f, err := os.Create(*out)
	if err != nil {
		return fmt.Errorf("creating output file %s: %w", *out, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && !errors.Is(cerr, os.ErrClosed) && err == nil {
			err = cerr
		}
	}()

	sess, err := obsf.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()

	root := sess.Tracer.Start("trace " + *bench)
	perfScope := sess.Perf.Begin("trace", root)
	defer perfScope.End()

	// Binary output records straight into the file through the spill
	// recorder; -text keeps the run in memory for the line-per-event dump.
	var (
		rec interface {
			trace.EventRecorder
			Stats() trace.RecorderStats
		}
		memRec *trace.Recorder
		spill  *trace.SpillRecorder
	)
	if *text {
		memRec = trace.NewRecorder()
		rec = memRec
	} else {
		if spill, err = trace.NewSpillRecorder(f, *chunkEvents); err != nil {
			return err
		}
		rec = spill
	}
	runSpan := root.Child("profile-run")
	mopts := []machine.Option{machine.WithRecorder(rec)}
	if *attrib {
		mopts = append(mopts, machine.WithAttribution())
	}
	m := machine.New(baselines.NewBaseline(cachesim.DefaultCost()), cachesim.ScaledConfig(), mopts...)
	spec.Program.Run(m, cfg)
	metrics := m.Finish()
	var writeErr error
	if spill != nil {
		// The terminator: the last partial chunk and the instruction count.
		writeErr = spill.Close()
	}
	stats := rec.Stats()
	runSpan.Set("events", stats.Events)
	runSpan.Set("chunks", stats.Chunks)
	runSpan.Set("peak_buffered_events", stats.PeakBufferedEvents)
	runSpan.End()
	if writeErr == nil && memRec != nil {
		writeSpan := root.Child("write-trace")
		writeErr = memRec.Trace().WriteText(f)
		writeSpan.End()
	}
	if writeErr == nil {
		writeErr = f.Close()
	}
	if writeErr != nil {
		return writeErr
	}

	perfScope.AddEvents(stats.Events)
	metrics.Publish(sess.Metrics, "benchmark", *bench, "run", "trace")
	if reg := sess.Metrics; reg != nil {
		kv := []string{"benchmark", *bench}
		stats.Publish(reg, kv...)
		reg.Counter("prefix_trace_events_total", kv...).Add(stats.Events)
		reg.Counter("prefix_trace_allocs_total", kv...).Add(metrics.Mallocs)
		reg.Counter("prefix_trace_accesses_total", kv...).Add(metrics.MemInstr)
	}
	fmt.Fprintf(stdout, "%s: %d events (%d allocs, %d accesses), %d instructions, %d chunks (peak %d events buffered) -> %s\n",
		*bench, stats.Events, metrics.Mallocs, metrics.MemInstr, metrics.Instr, stats.Chunks, stats.PeakBufferedEvents, *out)
	printAttrib(stdout, m.Attrib(), *bench, sess)
	return nil
}

// printAttrib prints the attributed top sites and publishes the
// prefix_attrib_* series; a disabled snapshot (no -attrib) is a no-op.
func printAttrib(stdout io.Writer, a machine.AttribCounts, bench string, sess *obsflags.Session) {
	if !a.Enabled {
		return
	}
	a.Publish(sess.Metrics, "benchmark", bench, "run", "trace")
	fmt.Fprintln(stdout, "top sites by LLC misses:")
	for _, s := range a.Top(5) {
		fmt.Fprintf(stdout, "  site %d: %d accesses, %d L1 misses, %d LLC misses (%.1f%% of all LLC misses)\n",
			s.Site, s.Counts.Accesses, s.Counts.L1Misses, s.Counts.LLCMisses, a.LLCMissSharePct(s.Site))
	}
}
