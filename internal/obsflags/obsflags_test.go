package obsflags

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prefix/internal/obs"
)

func TestRegisterAddsFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	f.RegisterServe(fs)
	for _, name := range []string{"metrics-out", "trace-out", "cpuprofile", "memprofile", "v", "serve"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if err := fs.Parse([]string{"-metrics-out", "m.prom", "-serve", ":0", "-v"}); err != nil {
		t.Fatal(err)
	}
	if f.MetricsOut != "m.prom" || f.Serve != ":0" || !f.Verbose {
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
	if sess.Tracker != nil {
		t.Error("tracker built without -serve")
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

func TestSessionServe(t *testing.T) {
	f := &Flags{Serve: "127.0.0.1:0"}
	sess, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Metrics == nil || sess.Tracer == nil || sess.Tracker == nil {
		t.Fatal("-serve must wire every observability source")
	}
	addr := sess.server.Addr()
	sess.Progress()(obs.JobEvent{Phase: "suite", Benchmark: "mcf", Jobs: 2, Seed: -1, State: obs.JobRunning})
	res, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), `"benchmark": "mcf"`) {
		t.Errorf("/status missing observed job:\n%s", body)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still serving after Close")
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
	if s.Metrics != nil || s.Tracer != nil || s.Tracker != nil {
		t.Errorf("flagless session built observability state: %+v", s)
	}
	s.stderr = io.Discard
	s.Progress()(obs.JobEvent{Phase: "suite", Benchmark: "x", Jobs: 1, Seed: -1, State: obs.JobRunning})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProgressPrintsRunningAndFailed: every event feeds the tracker;
// only running and failed events print a stderr line.
func TestProgressPrintsRunningAndFailed(t *testing.T) {
	f := &Flags{Serve: "127.0.0.1:0"}
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
	if !strings.Contains(buf.String(), "failed: boom") {
		t.Errorf("failed event not printed: %q", buf.String())
	}
	if st := sess.Tracker.Status(); st.Done != 1 || st.Failed != 1 {
		t.Errorf("tracker done/failed = %d/%d, want 1/1", st.Done, st.Failed)
	}
}
