package pipeline

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prefix/internal/obs"
	"prefix/internal/obs/perfstat"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/stage-surface.golden from this run")

// TestStageSurface pins everything the stage brackets make observable,
// apart from timings: the span tree (names, nesting, every arg, host_*
// included), each perf phase's aggregate and its prefix_perf_* series,
// the host samples handed back on Comparison.Host and
// Profile.AnalysisHost, and the progress events. The collector's clock
// never advances and its runtime probe is fixed, so every figure is
// deterministic; the tracer's clock steps on each reading, so a span
// left open shows as one with no duration. -jobs 1 fixes the order. It
// drives each bracketed entry point: the suite (and a failing suite
// job), a two-seed variance sweep on the same memo (mcf's seed 0 reuses
// the suite's comparison, health profiles under its variance root),
// Figure 9 from the suite's comparison and through
// TraceBaselineAndBest, Figure 10's thread sweep, and a streamed
// CollectProfile.
func TestStageSurface(t *testing.T) {
	epoch := time.Unix(0, 0)
	fixed := func() time.Time { return epoch }
	tr := obs.NewTracer()
	tr.SetClock(steppingClock())
	perfReg := obs.NewRegistry()
	pc := perfstat.New(perfReg)
	pc.SetClock(fixed)
	pc.SetProbe(func() perfstat.Probe { return perfstat.Probe{Goroutines: 1} })

	opt := fastOpt()
	opt.Tracer = tr
	opt.Perf = pc
	var (
		mu     sync.Mutex
		events []string
	)
	opt.Progress = func(ev obs.JobEvent) {
		mu.Lock()
		// Printed field by field, not through JobEvent.String.
		type fields obs.JobEvent
		events = append(events, fmt.Sprintf("%+v", fields(ev)))
		mu.Unlock()
	}

	var out strings.Builder
	m := NewMemo(opt)
	cmps, err := m.Suite([]string{"mcf"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "suite host: %+v\n", *cmps[0].Host)
	fmt.Fprintf(&out, "suite analysis host: %+v\n", *cmps[0].Profile.AnalysisHost)
	_, err = m.Suite([]string{"no-such-benchmark"}, 1)
	fmt.Fprintf(&out, "failed suite: %v\n", err)
	if _, err := m.Variance([]string{"mcf", "health"}, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := AnalyzeBaselineAndBest(cmps[0], opt, 1, func(bool, *trace.Analysis) {}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := TraceBaselineAndBest("mcf", opt); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMultithreadedJobs("mcf", []int{1, 2}, opt, 1); err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.Get("health")
	if err != nil {
		t.Fatal(err)
	}
	streamOpt := opt
	streamOpt.Stream = true
	streamOpt.StreamDir = t.TempDir()
	prof, err := CollectProfile(spec, streamOpt)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "stream analysis host: %+v\n", *prof.AnalysisHost)

	out.WriteString("spans:\n")
	for _, root := range tr.Roots() {
		writeSpanTree(&out, root, 1)
	}
	out.WriteString("phases:\n")
	for _, p := range pc.Snapshot().Phases {
		fmt.Fprintf(&out, "  %+v\n", p)
	}
	out.WriteString("perf series:\n")
	var prom strings.Builder
	if err := perfReg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "prefix_perf_") {
			fmt.Fprintf(&out, "  %s\n", line)
		}
	}
	out.WriteString("progress:\n")
	for _, ev := range events {
		fmt.Fprintf(&out, "  %s\n", ev)
	}

	golden := filepath.Join("testdata", "stage-surface.golden")
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("stage surface differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}

// steppingClock returns a clock that advances 1ns on every reading, so
// under a tracer every ended span has a positive duration. The tracer
// reads its clock under its own lock.
func steppingClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Nanosecond)
		return t
	}
}

// writeSpanTree prints s and its descendants one per line, indented by
// depth, each with its args in key order; a span still open is marked.
func writeSpanTree(w *strings.Builder, s *obs.Span, depth int) {
	fmt.Fprintf(w, "%s%s", strings.Repeat("  ", depth), s.Name)
	if s.Duration() == 0 {
		w.WriteString(" (open)")
	}
	keys, values := s.Args()
	for i, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, values[i])
	}
	w.WriteString("\n")
	for _, c := range s.Children() {
		writeSpanTree(w, c, depth+1)
	}
}
