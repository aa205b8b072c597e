// Package obsflags is the observability flag kit shared by every CLI.
// One Register call adds the common flags (-metrics-out, -trace-out,
// -cpuprofile, -memprofile, -v), and one Start/Close pair owns their
// whole lifecycle — profile start/stop, registry and tracer
// construction, and end-of-run file writes — so the four commands share
// a single implementation instead of copies. Every output is a file or
// a stderr line written by this process; nothing is served.
package obsflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"prefix/internal/obs"
	"prefix/internal/obs/perfstat"
)

// Flags holds the parsed observability flag values.
type Flags struct {
	MetricsOut string
	TraceOut   string
	CPUProfile string
	MemProfile string
	Verbose    bool
}

// Register adds the common observability flags to fs and returns the
// value struct (read after fs.Parse).
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write run metrics to this file (Prometheus text; .json extension selects JSON)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace-event JSON of the pipeline phases (chrome://tracing, Perfetto)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a Go CPU profile of this process to the file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a Go heap profile of this process to the file")
	fs.BoolVar(&f.Verbose, "v", false, "print a phase-timing summary and per-phase host-cost table to stderr at the end of the run")
	return f
}

// Session is the observability state behind the flags. Metrics and
// Tracer are nil when nothing asked for them, matching the pipeline's
// nil-safe no-op convention.
type Session struct {
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Perf is the host-cost sampler. Unlike the other members it is
	// always created: its per-scope cost is two runtime probes, the -v
	// table reads from it, and when Metrics is live it publishes the
	// prefix_perf_* series there too.
	Perf *perfstat.Collector

	flags   *Flags
	cpuFile *os.File
	stderr  io.Writer
}

// Start builds the session: creates the registry/tracer any flag needs
// and starts the CPU profile.
func (f *Flags) Start() (*Session, error) {
	s := &Session{flags: f, stderr: os.Stderr}
	if f.MetricsOut != "" {
		s.Metrics = obs.NewRegistry()
	}
	if f.TraceOut != "" || f.Verbose {
		s.Tracer = obs.NewTracer()
	}
	s.Perf = perfstat.New(s.Metrics)
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, err
		}
		s.cpuFile = cf
	}
	return s, nil
}

// Progress returns a pipeline progress callback that prints running and
// failed events to stderr.
func (s *Session) Progress() func(obs.JobEvent) {
	return func(ev obs.JobEvent) {
		if ev.State == obs.JobRunning || ev.State == obs.JobFailed {
			fmt.Fprintln(s.stderr, ev)
		}
	}
}

// Close finalizes the session: stops the CPU profile, writes the heap
// profile, the metrics and trace files, and prints the -v summary. Call
// it on every exit path (it runs once); the first error wins.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
		s.cpuFile = nil
	}
	if f := s.flags.MemProfile; f != "" {
		keep(writeHeapProfile(f))
		s.flags.MemProfile = ""
	}
	if f := s.flags.MetricsOut; f != "" {
		if err := s.Metrics.WriteMetricsFile(f); err != nil {
			keep(err)
		} else {
			fmt.Fprintf(s.stderr, "metrics written to %s\n", f)
		}
		s.flags.MetricsOut = ""
	}
	if f := s.flags.TraceOut; f != "" {
		if err := s.Tracer.WriteTraceFile(f); err != nil {
			keep(err)
		} else {
			fmt.Fprintf(s.stderr, "phase trace written to %s\n", f)
		}
		s.flags.TraceOut = ""
	}
	if s.flags.Verbose {
		keep(s.Tracer.WriteSummary(s.stderr))
		keep(s.Perf.WriteTable(s.stderr))
		s.flags.Verbose = false
	}
	return first
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	werr := pprof.WriteHeapProfile(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
