package perfstat

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"prefix/internal/obs"
)

// testClock steps a fixed amount on every reading, so wall times and
// sampler self-times are exact, deterministic values.
type testClock struct {
	t    time.Time
	step time.Duration
}

func (c *testClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// probeSeq replays a fixed sequence of probes, then repeats the last.
type probeSeq struct {
	probes []Probe
	i      int
}

func (p *probeSeq) next() Probe {
	if p.i >= len(p.probes) {
		return p.probes[len(p.probes)-1]
	}
	out := p.probes[p.i]
	p.i++
	return out
}

// steppingTracer returns a tracer whose clock steps 1ns per reading, so
// a span has a nonzero duration exactly when it has ended.
func steppingTracer() *obs.Tracer {
	tr := obs.NewTracer()
	tr.SetClock((&testClock{t: time.Unix(0, 0), step: time.Nanosecond}).now)
	return tr
}

func newTestCollector(reg *obs.Registry, step time.Duration, probes ...Probe) *Collector {
	c := New(reg)
	clk := &testClock{t: time.Unix(0, 0), step: step}
	c.SetClock(clk.now)
	if len(probes) > 0 {
		seq := &probeSeq{probes: probes}
		c.SetProbe(seq.next)
	}
	return c
}

func TestScopeDeltas(t *testing.T) {
	// Clock steps 1ms per reading. Begin reads now,probe,now; End reads
	// now,probe,now. Scope wall = End's first reading - Begin's last
	// reading = 2ms (one step inside the scope body per probe read, plus
	// the step to End's t0... with step=1ms: Begin t0=1ms, t1=2ms
	// (start); End t0=3ms → wall = 1ms).
	c := newTestCollector(nil, time.Millisecond,
		Probe{Mallocs: 100, AllocBytes: 1000, GCPauseNanos: 10, GCCycles: 1, Goroutines: 2},
		Probe{Mallocs: 150, AllocBytes: 1600, GCPauseNanos: 30, GCCycles: 3, Goroutines: 5},
	)
	sc := c.Begin("suite", nil)
	sc.AddEvents(2_000_000)
	sample := sc.End()

	if sample.Phase != "suite" {
		t.Fatalf("phase = %q", sample.Phase)
	}
	if sample.WallNanos != int64(time.Millisecond) {
		t.Errorf("wall = %d, want %d", sample.WallNanos, time.Millisecond)
	}
	if sample.Allocs != 50 || sample.AllocBytes != 600 {
		t.Errorf("allocs = %d/%d, want 50/600", sample.Allocs, sample.AllocBytes)
	}
	if sample.GCPauseNanos != 20 || sample.GCCycles != 2 {
		t.Errorf("gc = %d pause / %d cycles, want 20/2", sample.GCPauseNanos, sample.GCCycles)
	}
	if sample.Goroutines != 5 {
		t.Errorf("goroutines = %d, want 5 (max of probe points)", sample.Goroutines)
	}
	if sample.Events != 2_000_000 {
		t.Errorf("events = %d", sample.Events)
	}
	// 2e6 events over 1ms = 2e9 events/sec.
	if got := sample.EventsPerSec(); got != 2e9 {
		t.Errorf("events/sec = %g, want 2e9", got)
	}
}

func TestPhaseAggregationAndSnapshot(t *testing.T) {
	c := newTestCollector(nil, time.Millisecond, Probe{})
	for i := 0; i < 3; i++ {
		sc := c.Begin("suite", nil)
		sc.AddEvents(1000)
		sc.End()
	}
	sc := c.Begin("variance", nil)
	sc.AddEvents(500)
	sc.End()

	snap := c.Snapshot()
	if len(snap.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(snap.Phases))
	}
	// First-Begin order: suite before variance.
	if snap.Phases[0].Phase != "suite" || snap.Phases[1].Phase != "variance" {
		t.Errorf("phase order = %q, %q", snap.Phases[0].Phase, snap.Phases[1].Phase)
	}
	suite := snap.Phases[0]
	if suite.Scopes != 3 || suite.Events != 3000 {
		t.Errorf("suite scopes/events = %d/%d, want 3/3000", suite.Scopes, suite.Events)
	}
	if suite.WallNanos != 3*int64(time.Millisecond) {
		t.Errorf("suite wall = %d, want 3ms", suite.WallNanos)
	}
	if got := suite.EventsPerSec(); math.Abs(got-1e6) > 1e-3 {
		t.Errorf("suite events/sec = %g, want 1e6 (3000 events over 3ms)", got)
	}
	if variance := snap.Phases[1]; variance.Scopes != 1 || variance.Events != 500 {
		t.Errorf("variance scopes/events = %d/%d, want 1/500", variance.Scopes, variance.Events)
	}
	if snap.ElapsedNanos <= 0 {
		t.Errorf("elapsed = %d, want positive", snap.ElapsedNanos)
	}
	// Sampler self-time: each Begin/End pair spends 2 clock steps inside
	// probe reads (t0→t1 in Begin, t1→t2 in End) = 2ms per scope.
	if want := int64(4 * 2 * time.Millisecond); snap.OverheadNanos != want {
		t.Errorf("overhead = %d, want %d", snap.OverheadNanos, want)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	c.SetClock(nil)
	c.SetProbe(nil)
	sc := c.Begin("x", nil)
	if sc != nil {
		t.Fatalf("nil collector Begin = %v, want nil scope", sc)
	}
	sc.AddEvents(10)
	if s := sc.End(); s != (Sample{}) {
		t.Errorf("nil scope End = %+v, want zero", s)
	}
	// Without a collector the scope still owns its span's End, and
	// annotates nothing.
	span := steppingTracer().Start("stage")
	sc = c.Begin("x", span)
	sc.AddEvents(10)
	if s := sc.End(); s != (Sample{}) {
		t.Errorf("span-only scope End = %+v, want zero", s)
	}
	if span.Duration() == 0 {
		t.Error("span-only scope End left its span open")
	}
	if keys, _ := span.Args(); len(keys) != 0 {
		t.Errorf("span-only scope annotated %v", keys)
	}
	if snap := c.Snapshot(); len(snap.Phases) != 0 || snap.ElapsedNanos != 0 || snap.Allocs != 0 {
		t.Errorf("nil collector Snapshot = %+v, want zero", snap)
	}
	if c.Overhead() != 0 {
		t.Errorf("nil collector Overhead != 0")
	}
	var sb strings.Builder
	if err := c.WriteTable(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil collector WriteTable wrote %q, err %v", sb.String(), err)
	}
}

func TestDoubleEnd(t *testing.T) {
	c := newTestCollector(nil, time.Millisecond, Probe{})
	sc := c.Begin("x", nil)
	sc.End()
	if s := sc.End(); s != (Sample{}) {
		t.Errorf("second End = %+v, want zero", s)
	}
	if got := c.Snapshot().Phases[0].Scopes; got != 1 {
		t.Errorf("scopes = %d after double End, want 1", got)
	}
}

func TestRegistryPublishing(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCollector(reg, time.Millisecond,
		Probe{},
		Probe{Mallocs: 7, AllocBytes: 70, GCPauseNanos: 5, GCCycles: 1, Goroutines: 3},
	)
	sc := c.Begin("suite", nil)
	sc.AddEvents(4000)
	sc.End()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`prefix_perf_scopes_total{phase="suite"} 1`,
		`prefix_perf_wall_nanos_total{phase="suite"} 1000000`,
		`prefix_perf_events_total{phase="suite"} 4000`,
		`prefix_perf_allocs_total{phase="suite"} 7`,
		`prefix_perf_alloc_bytes_total{phase="suite"} 70`,
		`prefix_perf_gc_pause_nanos_total{phase="suite"} 5`,
		`prefix_perf_gc_cycles_total{phase="suite"} 1`,
		`prefix_perf_events_per_sec{phase="suite"}`,
		`prefix_perf_goroutines{phase="suite"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics export missing %q\n%s", want, out)
		}
	}
}

// TestRecordFoldsExternalSample: a sample timed outside any scope joins
// its phase aggregate and the registry exactly like a finished scope's.
func TestRecordFoldsExternalSample(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCollector(reg, time.Millisecond, Probe{})
	c.Record(Sample{Phase: "analyze", WallNanos: 2e9, Events: 1000})
	c.Record(Sample{Phase: "analyze", WallNanos: 2e9, Events: 3000})
	ph := c.Snapshot().Phases
	if len(ph) != 1 || ph[0].Phase != "analyze" || ph[0].Scopes != 2 ||
		ph[0].WallNanos != 4e9 || ph[0].Events != 4000 || ph[0].EventsPerSec() != 1000 {
		t.Errorf("phases = %+v", ph)
	}
	if got := reg.Counter("prefix_perf_wall_nanos_total", "phase", "analyze").Value(); got != 4e9 {
		t.Errorf("published wall = %d, want 4e9", got)
	}

	// Clock hands out the collector's own time source.
	clock := c.Clock()
	if a, b := clock(), clock(); b.Sub(a) != time.Millisecond {
		t.Errorf("Clock step = %v, want the injected 1ms", b.Sub(a))
	}
	var nilc *Collector
	nilc.Record(Sample{Phase: "x"})
	if nilc.Clock() != nil {
		t.Error("nil collector Clock is not nil")
	}
}

// TestRecordGoroutines: a recorded sample carries the goroutine count
// the collector's probe reads as Record runs, in the returned sample,
// the phase aggregate and the published gauge.
func TestRecordGoroutines(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCollector(reg, time.Millisecond, Probe{Goroutines: 4})
	got := c.Record(Sample{Phase: "analyze", WallNanos: 1e6, Events: 10})
	if want := (Sample{Phase: "analyze", WallNanos: 1e6, Events: 10, Goroutines: 4}); got != want {
		t.Errorf("Record returned %+v, want %+v", got, want)
	}
	if ph := c.Snapshot().Phases; len(ph) != 1 || ph[0].MaxGoroutines != 4 {
		t.Errorf("phases = %+v, want analyze with max goroutines 4", ph)
	}
	if g := reg.Gauge("prefix_perf_goroutines", "phase", "analyze").Value(); g != 4 {
		t.Errorf("prefix_perf_goroutines{phase=analyze} = %v, want 4", g)
	}
	var nilc *Collector
	if got := nilc.Record(Sample{Phase: "x", Events: 1}); got != (Sample{}) {
		t.Errorf("nil collector Record = %+v, want zero", got)
	}
}

// TestSnapshotTotalsExactUnderNesting: the totals are the probe at the
// first Begin subtracted from the probe at the latest End, whatever the
// phases do in between. Here a suite scope holds a profile scope, and an
// analyze scope opens inside the suite and outlives it, so a sum over
// phases would count 90 allocations where the process made 50.
func TestSnapshotTotalsExactUnderNesting(t *testing.T) {
	probe := func(n uint64, g int) Probe {
		return Probe{Mallocs: 10 * n, AllocBytes: 100 * n, GCPauseNanos: 1000 * (n + n/2), GCCycles: n / 2, Goroutines: g}
	}
	c := newTestCollector(nil, time.Millisecond,
		probe(1, 1), probe(2, 2), probe(3, 3), probe(4, 3), probe(5, 2), probe(6, 1))
	suite := c.Begin("suite", nil)
	profile := c.Begin("profile", nil)
	analyze := c.Begin("analyze", nil)
	profile.End()
	suite.End()
	analyze.End()

	snap := c.Snapshot()
	first, last := probe(1, 1), probe(6, 1)
	want := Snapshot{
		// Begin reads the clock at 1ms and 2ms (the first scope starts at
		// 2ms); the latest End reads it at 11ms, before its probe.
		ElapsedNanos: int64(9 * time.Millisecond),
		Allocs:       last.Mallocs - first.Mallocs,
		AllocBytes:   last.AllocBytes - first.AllocBytes,
		GCPauseNanos: last.GCPauseNanos - first.GCPauseNanos,
		GCCycles:     last.GCCycles - first.GCCycles,
	}
	if snap.ElapsedNanos != want.ElapsedNanos || snap.Allocs != want.Allocs || snap.AllocBytes != want.AllocBytes ||
		snap.GCPauseNanos != want.GCPauseNanos || snap.GCCycles != want.GCCycles {
		t.Errorf("totals = %+v, want %+v", snap, want)
	}
	var summed uint64
	for _, p := range snap.Phases {
		summed += p.Allocs
	}
	if summed != 90 || snap.Allocs != 50 {
		t.Errorf("allocs: phases sum to %d and the total is %d, want 90 and 50", summed, snap.Allocs)
	}

	var sb strings.Builder
	if err := c.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	var total []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "total" {
			total = f
		}
	}
	// No events or events/sec cell: wall, allocs, alloc bytes, gc pause.
	if wantRow := []string{"total", "9ms", "50", "500", "8µs"}; strings.Join(total, " ") != strings.Join(wantRow, " ") {
		t.Errorf("total row = %q, want %q\n%s", total, wantRow, sb.String())
	}
}

func TestSpanAnnotation(t *testing.T) {
	tr := steppingTracer()
	c := newTestCollector(nil, time.Millisecond,
		Probe{},
		Probe{Mallocs: 3, AllocBytes: 30, GCPauseNanos: 2},
	)
	span := tr.Start("benchmark mcf")
	sc := c.Begin("suite", span)
	sc.AddEvents(100)
	sc.End()
	if span.Duration() == 0 {
		t.Error("scope End left its span open")
	}

	keys, values := span.Args()
	got := make(map[string]any, len(keys))
	for i, k := range keys {
		got[k] = values[i]
	}
	if got["host_wall_nanos"] != int64(time.Millisecond) {
		t.Errorf("host_wall_nanos = %v", got["host_wall_nanos"])
	}
	if got["host_allocs"] != uint64(3) || got["host_alloc_bytes"] != uint64(30) {
		t.Errorf("host allocs = %v/%v", got["host_allocs"], got["host_alloc_bytes"])
	}
	if got["host_gc_pause_nanos"] != uint64(2) {
		t.Errorf("host_gc_pause_nanos = %v", got["host_gc_pause_nanos"])
	}
	if got["host_events"] != uint64(100) {
		t.Errorf("host_events = %v", got["host_events"])
	}
	if _, ok := got["host_events_per_sec"]; !ok {
		t.Errorf("host_events_per_sec missing")
	}
}

func TestWriteTable(t *testing.T) {
	c := newTestCollector(nil, time.Millisecond, Probe{})
	sc := c.Begin("suite", nil)
	sc.AddEvents(5000)
	sc.End()

	var sb strings.Builder
	if err := c.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"host cost:", "phase", "events/sec", "suite", "total", "sampler overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestLiveProbe(t *testing.T) {
	// No injected probe: exercise the real runtime reader end to end.
	c := New(nil)
	sc := c.Begin("live", nil)
	// Allocate something observable.
	buf := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		buf = append(buf, make([]byte, 1024))
	}
	_ = buf
	sample := sc.End()
	if sample.WallNanos <= 0 {
		t.Errorf("live wall = %d, want > 0", sample.WallNanos)
	}
	if sample.AllocBytes == 0 {
		t.Errorf("live alloc bytes = 0, want > 0 after allocating ~1MB")
	}
	if sample.Goroutines <= 0 {
		t.Errorf("live goroutines = %d, want > 0", sample.Goroutines)
	}
}

// TestProbeMatchesMemStats: the stop-the-world-free probe reads the
// counters runtime.ReadMemStats reports, so a MemStats snapshot taken
// between two probes lies between them on every field, and the probe
// itself allocates nothing that would leak into a scope's deltas.
func TestProbeMatchesMemStats(t *testing.T) {
	r := newProbeReader()
	runtime.GC()
	before := r.read()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	after := r.read()
	for _, f := range []struct {
		name        string
		lo, mem, hi uint64
	}{
		{"mallocs", before.Mallocs, ms.Mallocs, after.Mallocs},
		{"alloc bytes", before.AllocBytes, ms.TotalAlloc, after.AllocBytes},
		{"gc pause", before.GCPauseNanos, ms.PauseTotalNs, after.GCPauseNanos},
		{"gc cycles", before.GCCycles, uint64(ms.NumGC), after.GCCycles},
	} {
		if f.lo > f.mem || f.mem > f.hi {
			t.Errorf("%s: MemStats %d outside the probes' [%d, %d]", f.name, f.mem, f.lo, f.hi)
		}
	}
	if before.GCCycles == 0 || before.GCPauseNanos == 0 {
		t.Errorf("probe after runtime.GC() = %+v, want GC cycles and pause > 0", before)
	}
	if n := testing.AllocsPerRun(10, func() { r.read() }); n != 0 {
		t.Errorf("probe allocates %v times per read, want 0", n)
	}
}

func TestEventsPerSecZeroWall(t *testing.T) {
	s := Sample{Events: 100}
	if got := s.EventsPerSec(); got != 0 {
		t.Errorf("zero-wall events/sec = %g, want 0 (no +Inf in JSON)", got)
	}
}

func TestConcurrentScopes(t *testing.T) {
	// Overlapping scopes from multiple goroutines must be race-free and
	// all fold into the aggregate (run under -race in make check).
	c := New(obs.NewRegistry())
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				sc := c.Begin("par", nil)
				sc.AddEvents(10)
				sc.End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	snap := c.Snapshot()
	if snap.Phases[0].Scopes != 400 || snap.Phases[0].Events != 4000 {
		t.Errorf("scopes/events = %d/%d, want 400/4000", snap.Phases[0].Scopes, snap.Phases[0].Events)
	}
}
