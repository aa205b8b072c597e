package obsflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"prefix/internal/obs"
)

func TestRegisterAddsFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	for _, name := range []string{"metrics-out", "trace-out", "cpuprofile", "memprofile", "v"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse([]string{"-metrics-out", "m.prom", "-v"}); err != nil {
		t.Fatal(err)
	}
	if f.MetricsOut != "m.prom" || !f.Verbose {
		t.Errorf("parsed flags = %+v", f)
	}
}

func TestSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "run.prom")
	tracePath := filepath.Join(dir, "phases.json")
	f := &Flags{MetricsOut: metricsPath, TraceOut: tracePath}
	sess, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	sess.stderr = io.Discard
	if sess.Metrics == nil || sess.Tracer == nil {
		t.Fatal("session missing registry/tracer despite output flags")
	}
	sess.Metrics.Counter("prefix_test_total").Add(3)
	sess.Tracer.Start("phase").End()
	sess.Progress()(obs.JobEvent{Phase: "suite", Benchmark: "mcf", Jobs: 1, Seed: -1, State: obs.JobDone})
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "prefix_test_total 3") {
		t.Errorf("metrics file missing counter:\n%s", prom)
	}
	tr, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), "traceEvents") {
		t.Errorf("trace file is not a Chrome trace document:\n%s", tr)
	}
	// Close is idempotent.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionNilSafe(t *testing.T) {
	var sess *Session
	if err := sess.Close(); err != nil {
		t.Errorf("nil session Close = %v", err)
	}
	f := &Flags{}
	s, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	// No flags set: everything nil, progress still callable.
	if s.Metrics != nil || s.Tracer != nil {
		t.Errorf("flagless session built observability state: %+v", s)
	}
	s.stderr = io.Discard
	s.Progress()(obs.JobEvent{Phase: "suite", Benchmark: "x", Jobs: 1, Seed: -1, State: obs.JobRunning})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProgressPrintsRunningAndFailed: only running and failed events
// print a stderr line, each as the event's String().
func TestProgressPrintsRunningAndFailed(t *testing.T) {
	f := &Flags{}
	sess, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var buf strings.Builder
	sess.stderr = &buf
	prog := sess.Progress()
	prog(obs.JobEvent{Phase: "suite", Benchmark: "mcf", Job: 0, Jobs: 2, Seed: -1, State: obs.JobRunning})
	if !strings.Contains(buf.String(), "[suite 1/2] mcf running") {
		t.Errorf("running event not printed: %q", buf.String())
	}
	buf.Reset()
	prog(obs.JobEvent{Phase: "suite", Benchmark: "mcf", Job: 0, Jobs: 2, Seed: -1, State: obs.JobDone})
	if got := buf.String(); got != "" {
		t.Errorf("done event printed: %q", got)
	}
	prog(obs.JobEvent{Phase: "suite", Benchmark: "health", Job: 1, Jobs: 2, Seed: -1, State: obs.JobFailed, Err: "boom"})
	if got, want := buf.String(), "[suite 2/2] health failed: boom\n"; got != want {
		t.Errorf("failed event printed %q, want %q", got, want)
	}
}

// TestVerboseEndsWithPeakRSS: the -v summary's last line is the peak
// RSS on Linux, and there is no such line elsewhere or without -v.
func TestVerboseEndsWithPeakRSS(t *testing.T) {
	for _, verbose := range []bool{false, true} {
		sess, err := (&Flags{Verbose: verbose}).Start()
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		sess.stderr = &buf
		sess.Tracer.Start("phase").End()
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		last := lines[len(lines)-1]
		want := verbose && runtime.GOOS == "linux"
		if got := strings.HasPrefix(last, "peak RSS: ") && strings.HasSuffix(last, " MB"); got != want {
			t.Errorf("-v=%v on %s: last stderr line %q", verbose, runtime.GOOS, last)
		}
		if n := strings.Count(buf.String(), "peak RSS"); n > 1 || (n == 1) != want {
			t.Errorf("-v=%v: %d peak RSS lines in\n%s", verbose, n, buf.String())
		}
	}
}
