package pipeline

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/obs"
	"prefix/internal/obs/perfstat"
	"prefix/internal/workloads"
)

// TestPerfSmoke is the host-cost end-to-end smoke: a parallel suite run
// with a perfstat collector attached must attribute wall time, heap
// cost, and events/sec to every job, and the collector's totals must
// line up with the per-benchmark samples. The run carries every other
// observer a CLI can attach — registry, tracer, attribution, progress —
// so `go test -race` checks them all under the worker pool at once.
func TestPerfSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	pc := perfstat.New(reg)
	opt := fastOpt()
	opt.Metrics = reg
	opt.Tracer = tr
	opt.Perf = pc
	opt.Attribution = true
	var mu sync.Mutex
	done := map[string]int{}
	opt.Progress = func(ev obs.JobEvent) {
		if ev.State == obs.JobDone {
			mu.Lock()
			done[ev.Benchmark]++
			mu.Unlock()
		}
	}
	names := []string{"mcf", "health", "swissmap", "ft"}
	cmps, err := RunSuite(names, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if done[name] != 1 {
			t.Errorf("%s: %d done events, want 1 (all: %v)", name, done[name], done)
		}
	}
	if len(done) != len(names) {
		t.Errorf("done events for %v, want exactly %v", done, names)
	}
	if roots := tr.Roots(); len(roots) != len(names) {
		t.Errorf("tracer roots = %d, want one per benchmark (%d)", len(roots), len(names))
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"prefix_perf_events_total", "prefix_attrib_llc_misses_total"} {
		if !strings.Contains(prom.String(), series) {
			t.Errorf("Prometheus output missing %s", series)
		}
	}
	for i, cmp := range cmps {
		h := cmp.Host
		if h == nil {
			t.Fatalf("%s: Comparison.Host is nil with a collector attached", names[i])
		}
		if h.Phase != "suite" {
			t.Errorf("%s: host sample phase = %q, want \"suite\"", names[i], h.Phase)
		}
		if h.WallNanos <= 0 {
			t.Errorf("%s: host wall = %d ns, want > 0", names[i], h.WallNanos)
		}
		if h.Events == 0 {
			t.Errorf("%s: host events = 0, want the run's simulation event count", names[i])
		}
		if h.EventsPerSec() <= 0 {
			t.Errorf("%s: events/sec = %g, want > 0", names[i], h.EventsPerSec())
		}
	}

	snap := pc.Snapshot()
	if snap.ElapsedNanos <= 0 || snap.AllocBytes == 0 {
		t.Errorf("snapshot elapsed=%d alloc bytes=%d, want both > 0", snap.ElapsedNanos, snap.AllocBytes)
	}
	phases := map[string]perfstat.PhaseStats{}
	for _, p := range snap.Phases {
		phases[p.Phase] = p
	}
	for _, phase := range []string{"suite", "profile"} {
		p, ok := phases[phase]
		if !ok {
			t.Fatalf("snapshot missing phase %q (have %v)", phase, snap.Phases)
		}
		if p.Scopes != len(names) {
			t.Errorf("phase %q scopes = %d, want %d (one per benchmark)", phase, p.Scopes, len(names))
		}
		if p.WallNanos <= 0 || p.Events == 0 || p.EventsPerSec() <= 0 {
			t.Errorf("phase %q wall=%d events=%d events/sec=%g, want all > 0", phase, p.WallNanos, p.Events, p.EventsPerSec())
		}
	}
}

// TestPerfScaleMonotone pins that host-cost attribution actually tracks
// the work done: running the same workload at 4x the scale must produce
// more simulation events (exact — the simulation is deterministic) and
// more wall time (retried — host timing is noisy at smoke scale).
func TestPerfScaleMonotone(t *testing.T) {
	spec, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt()
	runScaled := func(pc *perfstat.Collector, phase string, scale float64) perfstat.Sample {
		cfg := spec.Profile
		cfg.Scale = scale
		sc := pc.Begin(phase, nil)
		m := machine.New(baselines.NewBaseline(opt.Cache.Cost), opt.Cache)
		spec.Program.Run(m, cfg)
		sc.AddEvents(m.Finish().Events())
		return sc.End()
	}

	pc := perfstat.New(nil)
	small := runScaled(pc, "scale_small", spec.Profile.Scale)
	big := runScaled(pc, "scale_big", spec.Profile.Scale*4)
	if big.Events <= small.Events {
		t.Fatalf("events not monotone with scale: small=%d big=%d", small.Events, big.Events)
	}

	// Wall time is host-dependent; allow a few retries before declaring
	// the attribution broken.
	for attempt := 0; ; attempt++ {
		if big.WallNanos > small.WallNanos {
			break
		}
		if attempt >= 4 {
			t.Fatalf("wall time not monotone with scale after %d attempts: small=%dns big=%dns",
				attempt, small.WallNanos, big.WallNanos)
		}
		small = runScaled(pc, "scale_small", spec.Profile.Scale)
		big = runScaled(pc, "scale_big", spec.Profile.Scale*4)
	}
}

// TestProfileAnalysisHostSample: with a perfstat collector attached, the
// profile carries the analyze stage's own host sample on both the
// in-memory and the streaming path; without one it carries none.
func TestProfileAnalysisHostSample(t *testing.T) {
	spec, err := workloads.Get("swissmap")
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		opt := fastOpt()
		opt.Stream = stream
		opt.StreamDir = t.TempDir()
		opt.Perf = perfstat.New(nil)
		prof, err := CollectProfile(spec, opt)
		if err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
		h := prof.AnalysisHost
		if h == nil {
			t.Fatalf("stream=%v: AnalysisHost not recorded with Perf attached", stream)
		}
		if h.Phase != "analyze" || h.Events == 0 {
			t.Errorf("stream=%v: analysis sample = %+v", stream, h)
		}

		// On the default path the wall is the analyzer's own feed time:
		// one clock pair per delivered batch, so under a clock stepping
		// 1µs per reading it is exactly 1µs per 256-event batch.
		if !stream {
			opt.Perf = perfstat.New(nil)
			clk := time.Unix(0, 0)
			opt.Perf.SetClock(func() time.Time { clk = clk.Add(time.Microsecond); return clk })
			if prof, err = CollectProfile(spec, opt); err != nil {
				t.Fatal(err)
			}
			h := prof.AnalysisHost
			batches := (h.Events + 255) / 256
			if h.Events != prof.Stats.Events || h.WallNanos != int64(batches)*1000 {
				t.Errorf("analysis sample = %+v, want %d events and %dµs for %d batches",
					h, prof.Stats.Events, batches, batches)
			}
		}

		opt.Perf = nil
		if prof, err = CollectProfile(spec, opt); err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
		if prof.AnalysisHost != nil {
			t.Errorf("stream=%v: AnalysisHost recorded without a collector", stream)
		}
	}
}

// TestStreamProfileErrorClosesStages: when the spill file cannot be
// created (StreamDir names a regular file), CollectProfile returns the
// error, and the failed stage still closes every span it opened and its
// host scope, once.
func TestStreamProfileErrorClosesStages(t *testing.T) {
	spec, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opt := fastOpt()
	opt.Stream = true
	opt.StreamDir = notDir
	opt.Tracer = obs.NewTracer()
	opt.Tracer.SetClock(steppingClock())
	opt.Perf = perfstat.New(nil)
	if _, err := CollectProfile(spec, opt); err == nil || !strings.Contains(err.Error(), "streaming profile") {
		t.Fatalf("CollectProfile err = %v, want the spill file's creation error", err)
	}
	var spans []string
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		spans = append(spans, s.Name)
		if s.Duration() == 0 {
			t.Errorf("span %q left open on the error path", s.Name)
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, root := range opt.Tracer.Roots() {
		walk(root)
	}
	if want := []string{"profile mcf", "profile-run"}; !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
	if ph := opt.Perf.Snapshot().Phases; len(ph) != 1 || ph[0].Phase != "profile" || ph[0].Scopes != 1 {
		t.Errorf("perf phases = %+v, want one ended profile scope", ph)
	}
}
