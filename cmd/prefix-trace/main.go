// Command prefix-trace runs a benchmark under the tracing machine (the
// DynamoRIO stage of the paper's Figure 8 pipeline) and writes the
// allocation/access trace to a file for prefix-analyze.
//
// Usage:
//
//	prefix-trace -bench mcf -o mcf.trace            # profiling input
//	prefix-trace -bench mcf -scale long -o mcf.trace
//	prefix-trace -bench mcf -o mcf.trace -stream    # bounded memory
//	prefix-trace -bench mcf -o mcf.trace -stream -chunk-events 4096
//	prefix-trace -bench mcf -o mcf.trace -metrics-out run.prom -v
//
// With -stream the trace never materializes: the machine records through
// the spill recorder straight into the output file, holding at most
// -chunk-events events in memory. Both modes write the same chunked
// format, so at the same -chunk-events the files are byte-identical.
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
	"prefix/internal/obs"
	"prefix/internal/obs/perfstat"
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
		stream      = fs.Bool("stream", false, "record through the bounded-memory spill recorder straight into the output file (chunked stream format)")
		chunkEvents = fs.Int("chunk-events", trace.DefaultChunkEvents, "events per chunk of the output file (in -stream mode, the trace memory budget)")
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
	if *stream && *text {
		return errors.New("-stream writes the binary format; it cannot be combined with -text")
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
	defer root.End()
	perfScope := sess.Perf.Begin("trace").AttachSpan(root)
	defer perfScope.End()
	if *stream {
		return runStreaming(stdout, f, spec, cfg, *bench, *chunkEvents, *attrib, sess, root, perfScope)
	}

	runSpan := root.Child("profile-run")
	rec := trace.NewRecorder()
	mopts := []machine.Option{machine.WithRecorder(rec)}
	if *attrib {
		mopts = append(mopts, machine.WithAttribution())
	}
	m := machine.New(baselines.NewBaseline(cachesim.DefaultCost()), cachesim.ScaledConfig(), mopts...)
	spec.Program.Run(m, cfg)
	metrics := m.Finish()
	tr := rec.Trace()
	runSpan.Set("events", len(tr.Events))
	runSpan.End()
	perfScope.AddEvents(rec.Stats().Events)
	metrics.Publish(sess.Metrics, "benchmark", *bench, "run", "trace")

	writeSpan := root.Child("write-trace")
	var writeErr error
	if *text {
		writeErr = tr.WriteText(f)
	} else {
		writeErr = writeBinary(f, tr, *chunkEvents)
	}
	if writeErr == nil {
		writeErr = f.Close()
	}
	writeSpan.End()
	if writeErr != nil {
		return writeErr
	}

	s := tr.Summarize()
	if reg := sess.Metrics; reg != nil {
		kv := []string{"benchmark", *bench}
		rec.Stats().Publish(reg, kv...)
		reg.Counter("prefix_trace_events_total", kv...).Add(uint64(s.Events))
		reg.Counter("prefix_trace_allocs_total", kv...).Add(s.Allocs)
		reg.Counter("prefix_trace_accesses_total", kv...).Add(s.Accesses)
		reg.Gauge("prefix_trace_sites", kv...).Set(float64(s.Sites))
	}
	fmt.Fprintf(stdout, "%s: %d events (%d allocs over %d sites, %d accesses), %d instructions -> %s\n",
		*bench, s.Events, s.Allocs, s.Sites, s.Accesses, metrics.Instr, *out)
	printAttrib(stdout, m.Attrib(), *bench, sess)
	return nil
}

// writeBinary encodes tr in chunks of chunkEvents events.
func writeBinary(w io.Writer, tr *trace.Trace, chunkEvents int) error {
	sw, err := trace.NewStreamWriter(w, chunkEvents)
	if err != nil {
		return err
	}
	if err := sw.AppendBatch(tr.Events); err != nil {
		return err
	}
	sw.SetInstr(tr.Instr)
	return sw.Close()
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

// runStreaming records the run through the spill recorder directly into
// the (already created) output file. The caller closes the file.
func runStreaming(stdout io.Writer, f *os.File, spec workloads.Spec, cfg workloads.Config,
	bench string, chunkEvents int, attrib bool, sess *obsflags.Session, root *obs.Span, perfScope *perfstat.Scope) error {
	runSpan := root.Child("profile-run")
	rec, err := trace.NewSpillRecorder(f, chunkEvents)
	if err != nil {
		runSpan.End()
		return err
	}
	mopts := []machine.Option{machine.WithRecorder(rec)}
	if attrib {
		mopts = append(mopts, machine.WithAttribution())
	}
	m := machine.New(baselines.NewBaseline(cachesim.DefaultCost()), cachesim.ScaledConfig(), mopts...)
	spec.Program.Run(m, cfg)
	metrics := m.Finish()
	if err := rec.Close(); err != nil {
		runSpan.End()
		return err
	}
	stats := rec.Stats()
	runSpan.Set("events", stats.Events)
	runSpan.Set("chunks", stats.Chunks)
	runSpan.Set("peak_buffered_events", stats.PeakBufferedEvents)
	runSpan.End()
	perfScope.AddEvents(stats.Events)

	metrics.Publish(sess.Metrics, "benchmark", bench, "run", "trace")
	if reg := sess.Metrics; reg != nil {
		kv := []string{"benchmark", bench}
		stats.Publish(reg, kv...)
		reg.Counter("prefix_trace_events_total", kv...).Add(stats.Events)
	}
	fmt.Fprintf(stdout, "%s: %d events streamed in %d chunks (peak %d buffered), %d instructions -> %s\n",
		bench, stats.Events, stats.Chunks, stats.PeakBufferedEvents, metrics.Instr, f.Name())
	printAttrib(stdout, m.Attrib(), bench, sess)
	return nil
}
