// Package perfstat measures what the simulator itself costs the host —
// the measurement layer the hot-path throughput campaign gates on. The
// rest of the repo measures *simulated* cycles and miss rates; perfstat
// attributes *host* resources to the same phase structure: per-phase
// wall time, Go heap allocation deltas and GC cycles (runtime/metrics),
// GC pause totals (runtime/debug.ReadGCStats), goroutine counts, and an
// events/sec throughput figure derived from the simulated event counts
// each phase processed.
//
// The unit of measurement is a Scope: Begin samples the runtime, the
// bracketed work runs, End samples again and folds the deltas into the
// per-phase aggregate. A scope is also the stage's one bracket: Begin
// takes the span that times the same stage, and End annotates and ends
// it, so a span and its host cost always open and close together.
// Scopes may nest (a "profile" scope inside a "suite" scope) and overlap
// across goroutines; wall time is accumulated per scope, so a phase's
// wall under a parallel harness is job-time, not elapsed time, and
// allocation deltas are process-global over the scope's lifetime —
// exact for serial phases, an upper bound when jobs overlap. The
// collector's totals are not sums over phases: they are the process's
// totals between the first Begin and the latest End, exact under nesting
// and overlap. The sampler also accounts for its own cost (the time
// spent inside Begin/End), so its overhead is a measured number, not a
// claim.
//
// Everything is nil-safe in the obs tradition: a nil *Collector hands
// out scopes that only end their span (nil scopes when there is none),
// and every method on either no-ops, so instrumented code never branches
// on "perfstat enabled". Samples never feed report output; attaching a
// collector cannot change a reported result.
package perfstat

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	runtimemetrics "runtime/metrics"
	"sync"
	"text/tabwriter"
	"time"

	"prefix/internal/obs"
)

// runtime/metrics keys sampled at each probe, in probeMetrics order.
// MemStats.Mallocs counts tiny allocations too, so it is the sum of the
// first two; MemStats.TotalAlloc is the third.
var probeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/goroutines:goroutines",
}

// wallClock is the package's one sanctioned wall-clock source, matching
// the obs convention: every collector defaults to it and exposes
// SetClock so tests are deterministic.
func wallClock() time.Time {
	//lint:ignore nodeterminism host-cost wall time is genuinely wall-clock; it never feeds report output and tests swap the clock via SetClock
	return time.Now()
}

// Probe is one point-in-time runtime reading. All cumulative fields are
// monotone process totals; Scope deltas subtract two probes.
type Probe struct {
	Mallocs      uint64 // cumulative heap objects allocated
	AllocBytes   uint64 // cumulative bytes allocated
	GCPauseNanos uint64 // cumulative stop-the-world pause time
	GCCycles     uint64 // completed GC cycles
	Goroutines   int    // current goroutine count
}

// probeReader samples the live runtime without stopping the world:
// runtime/metrics gives the same allocation totals as
// runtime.ReadMemStats, and debug.ReadGCStats the same pause total, at
// a small fraction of ReadMemStats' stop-the-world cost. Not safe for
// concurrent use; the collector calls it under its lock.
type probeReader struct {
	samples []runtimemetrics.Sample
	gc      debug.GCStats
}

func newProbeReader() *probeReader {
	r := &probeReader{samples: make([]runtimemetrics.Sample, len(probeMetrics))}
	for i, name := range probeMetrics {
		r.samples[i].Name = name
	}
	// ReadGCStats reuses a pause buffer of twice the runtime's pause
	// history (plus 3) instead of allocating one per call.
	r.gc.Pause = make([]time.Duration, 0, 2*len(runtime.MemStats{}.PauseNs)+3)
	r.gc.PauseEnd = make([]time.Time, 0, len(runtime.MemStats{}.PauseNs))
	return r
}

func (r *probeReader) read() Probe {
	runtimemetrics.Read(r.samples)
	debug.ReadGCStats(&r.gc)
	v := func(i int) uint64 { return r.samples[i].Value.Uint64() }
	return Probe{
		Mallocs:      v(0) + v(1),
		AllocBytes:   v(2),
		GCPauseNanos: uint64(r.gc.PauseTotal),
		GCCycles:     v(3),
		Goroutines:   int(v(4)),
	}
}

// Collector aggregates host-cost samples per phase and publishes them
// into an obs.Registry as the prefix_perf_* series. All methods are safe
// for concurrent use and nil-safe.
type Collector struct {
	mu    sync.Mutex
	now   func() time.Time
	probe func() Probe
	reg   *obs.Registry

	phases     map[string]*PhaseStats
	order      []string
	firstBegin time.Time
	lastEnd    time.Time
	// firstProbe is the runtime reading at the first Begin, lastProbe
	// the one at the latest End: the process totals between them are the
	// Snapshot's runtime columns.
	firstProbe Probe
	lastProbe  Probe
	open       int
	selfNanos  int64
}

// New returns a collector publishing into reg (nil: aggregate only).
func New(reg *obs.Registry) *Collector {
	return &Collector{
		now:    wallClock,
		probe:  newProbeReader().read,
		reg:    reg,
		phases: make(map[string]*PhaseStats),
	}
}

// SetClock replaces the collector's time source (deterministic tests).
func (c *Collector) SetClock(now func() time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// SetProbe replaces the runtime reader (deterministic tests).
func (c *Collector) SetProbe(probe func() Probe) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probe = probe
}

// Scope is one bracketed stage of work. Created by Begin, finished by
// End; AddEvents credits it with simulated events for the events/sec
// figure.
type Scope struct {
	c      *Collector
	phase  string
	span   *obs.Span
	start  time.Time
	begin  Probe
	events uint64
	done   bool
}

// Begin opens a stage: a scope for the named phase, sampling the
// runtime, that owns span (nil: the stage has none). End records the
// measured deltas on span as host_* annotations and ends it. The
// scope's wall clock starts after the sample, so sampler cost is not
// attributed to the phase. Nil-safe: a nil collector returns a scope
// that only ends span, or nil when span is nil too.
func (c *Collector) Begin(phase string, span *obs.Span) *Scope {
	if c == nil {
		if span == nil {
			return nil
		}
		return &Scope{phase: phase, span: span}
	}
	c.mu.Lock()
	t0 := c.now()
	p := c.probe()
	t1 := c.now()
	c.selfNanos += t1.Sub(t0).Nanoseconds()
	if c.firstBegin.IsZero() {
		c.firstBegin = t1
		c.firstProbe = p
	}
	c.open++
	c.mu.Unlock()
	return &Scope{c: c, phase: phase, span: span, start: t1, begin: p}
}

// AddEvents credits the scope with n simulated events (recorder events
// processed, machine events evaluated); End divides by wall time for the
// events/sec figure. Nil-safe.
func (s *Scope) AddEvents(n uint64) {
	if s != nil {
		s.events += n
	}
}

// Sample is one finished scope's measured host cost.
type Sample struct {
	Phase        string `json:"phase"`
	WallNanos    int64  `json:"wall_nanos"`
	Events       uint64 `json:"events"`
	Allocs       uint64 `json:"allocs"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	GCPauseNanos uint64 `json:"gc_pause_nanos"`
	GCCycles     uint64 `json:"gc_cycles"`
	Goroutines   int    `json:"goroutines"`
}

// EventsPerSec is the sample's throughput figure (0 when wall is 0).
func (s Sample) EventsPerSec() float64 {
	if s.WallNanos <= 0 {
		return 0
	}
	return float64(s.Events) / (float64(s.WallNanos) / 1e9)
}

// End closes the scope: samples the runtime again, folds the deltas into
// the phase aggregate, publishes the prefix_perf_* series, annotates and
// ends the scope's span, and returns the sample. Ending twice returns
// the zero sample. Nil-safe; a scope without a collector ends its span
// and returns the zero sample.
func (s *Scope) End() Sample {
	if s == nil || s.done {
		return Sample{}
	}
	s.done = true
	c := s.c
	if c == nil {
		s.span.End()
		return Sample{}
	}
	c.mu.Lock()
	t0 := c.now()
	p := c.probe()
	t1 := c.now()
	c.selfNanos += t1.Sub(t0).Nanoseconds()
	c.open--
	if t0.After(c.lastEnd) {
		c.lastEnd = t0
	}
	c.lastProbe = p
	sample := Sample{
		Phase:        s.phase,
		WallNanos:    t0.Sub(s.start).Nanoseconds(),
		Events:       s.events,
		Allocs:       p.Mallocs - s.begin.Mallocs,
		AllocBytes:   p.AllocBytes - s.begin.AllocBytes,
		GCPauseNanos: p.GCPauseNanos - s.begin.GCPauseNanos,
		GCCycles:     p.GCCycles - s.begin.GCCycles,
		Goroutines:   maxInt(s.begin.Goroutines, p.Goroutines),
	}
	phTotal := c.foldLocked(sample)
	c.mu.Unlock()

	c.publish(sample, phTotal)
	if sp := s.span; sp != nil {
		sp.Set("host_wall_nanos", sample.WallNanos)
		sp.Set("host_allocs", sample.Allocs)
		sp.Set("host_alloc_bytes", sample.AllocBytes)
		sp.Set("host_gc_pause_nanos", sample.GCPauseNanos)
		if sample.Events > 0 {
			sp.Set("host_events", sample.Events)
			sp.Set("host_events_per_sec", sample.EventsPerSec())
		}
		sp.End()
	}
	return sample
}

// Record folds a sample measured without a scope into its phase and
// publishes it like a finished scope. It is for work that runs
// interleaved with another phase, so no Begin/End pair can isolate it,
// and that times itself on Clock. The sample's goroutine count is read
// from the collector's probe as Record runs; the completed sample is
// returned. Nil-safe: a nil collector returns the zero sample.
func (c *Collector) Record(sample Sample) Sample {
	if c == nil {
		return Sample{}
	}
	c.mu.Lock()
	t0 := c.now()
	sample.Goroutines = c.probe().Goroutines
	c.selfNanos += c.now().Sub(t0).Nanoseconds()
	phTotal := c.foldLocked(sample)
	c.mu.Unlock()
	c.publish(sample, phTotal)
	return sample
}

// Clock returns the collector's time source, the one Record's samples
// must be timed on. Nil on a nil collector.
func (c *Collector) Clock() func() time.Time {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// foldLocked adds sample to its phase aggregate and returns the new
// total. The caller holds c.mu.
func (c *Collector) foldLocked(sample Sample) PhaseStats {
	ph, ok := c.phases[sample.Phase]
	if !ok {
		ph = &PhaseStats{Phase: sample.Phase}
		c.phases[sample.Phase] = ph
		c.order = append(c.order, sample.Phase)
	}
	ph.fold(sample)
	return *ph
}

// publish exports a sample's deltas and its phase's cumulative
// throughput into the registry (nil registry: no-op).
func (c *Collector) publish(sample Sample, ph PhaseStats) {
	reg := c.reg
	if reg == nil {
		return
	}
	kv := []string{"phase", sample.Phase}
	reg.Counter("prefix_perf_scopes_total", kv...).Inc()
	reg.Counter("prefix_perf_wall_nanos_total", kv...).Add(uint64(sample.WallNanos))
	reg.Counter("prefix_perf_events_total", kv...).Add(sample.Events)
	reg.Counter("prefix_perf_allocs_total", kv...).Add(sample.Allocs)
	reg.Counter("prefix_perf_alloc_bytes_total", kv...).Add(sample.AllocBytes)
	reg.Counter("prefix_perf_gc_pause_nanos_total", kv...).Add(sample.GCPauseNanos)
	reg.Counter("prefix_perf_gc_cycles_total", kv...).Add(sample.GCCycles)
	reg.Gauge("prefix_perf_events_per_sec", kv...).Set(ph.EventsPerSec())
	reg.Gauge("prefix_perf_goroutines", kv...).Set(float64(sample.Goroutines))
}

// PhaseStats is one phase's aggregate over every finished scope.
type PhaseStats struct {
	Phase        string
	Scopes       int
	WallNanos    int64
	Events       uint64
	Allocs       uint64
	AllocBytes   uint64
	GCPauseNanos uint64
	GCCycles     uint64
	// MaxGoroutines is the largest goroutine count observed at any of the
	// phase's probe points.
	MaxGoroutines int
}

func (p *PhaseStats) fold(s Sample) {
	p.Scopes++
	p.WallNanos += s.WallNanos
	p.Events += s.Events
	p.Allocs += s.Allocs
	p.AllocBytes += s.AllocBytes
	p.GCPauseNanos += s.GCPauseNanos
	p.GCCycles += s.GCCycles
	if s.Goroutines > p.MaxGoroutines {
		p.MaxGoroutines = s.Goroutines
	}
}

// EventsPerSec is the phase's cumulative throughput (0 when wall is 0).
func (p PhaseStats) EventsPerSec() float64 {
	if p.WallNanos <= 0 {
		return 0
	}
	return float64(p.Events) / (float64(p.WallNanos) / 1e9)
}

// Snapshot is the collector's full view: elapsed time and the process's
// runtime totals over it, per-phase attribution, and the sampler's own
// measured overhead — the -v table's source.
type Snapshot struct {
	// ElapsedNanos spans the first Begin to the last End (or to now while
	// scopes are open).
	ElapsedNanos int64
	// Allocs, AllocBytes, GCPauseNanos and GCCycles are the differences
	// between the probes at the first Begin and at the latest End: exact
	// however the phases nest or overlap, where a sum over phases would
	// count nested and concurrent work more than once. There is no events
	// total: events are credited per scope, so only the phases carry them.
	Allocs       uint64
	AllocBytes   uint64
	GCPauseNanos uint64
	GCCycles     uint64
	// OverheadNanos is the time spent inside the sampler itself (probe
	// reads in Begin/End) — the measured cost of measuring.
	OverheadNanos int64
	Phases        []PhaseStats
}

// Snapshot renders the current state. Zero value on nil.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{OverheadNanos: c.selfNanos}
	if !c.firstBegin.IsZero() {
		end := c.lastEnd
		if c.open > 0 || end.IsZero() {
			end = c.now()
		}
		snap.ElapsedNanos = end.Sub(c.firstBegin).Nanoseconds()
	}
	if !c.lastEnd.IsZero() {
		first, last := c.firstProbe, c.lastProbe
		snap.Allocs = last.Mallocs - first.Mallocs
		snap.AllocBytes = last.AllocBytes - first.AllocBytes
		snap.GCPauseNanos = last.GCPauseNanos - first.GCPauseNanos
		snap.GCCycles = last.GCCycles - first.GCCycles
	}
	for _, name := range c.order {
		snap.Phases = append(snap.Phases, *c.phases[name])
	}
	return snap
}

// Overhead returns the accumulated sampler self-time. Zero on nil.
func (c *Collector) Overhead() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.selfNanos)
}

// WriteTable prints the per-phase host-cost table (the -v summary
// extension): wall, events, events/sec, allocation and GC attribution.
// Phases print in first-Begin order with a trailing totals row: elapsed
// wall and the Snapshot's exact runtime totals, with the events columns
// left blank. A collector with no finished scopes prints nothing.
// Nil-safe.
func (c *Collector) WriteTable(w io.Writer) error {
	snap := c.Snapshot()
	if len(snap.Phases) == 0 {
		return nil
	}
	fmt.Fprintln(w, "host cost:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  phase\tscopes\twall\tevents\tevents/sec\tallocs\talloc bytes\tgc pause\tmax g")
	row := func(name string, p PhaseStats) {
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%d\t%s\t%d\t%d\t%s\t%d\n",
			name, p.Scopes, time.Duration(p.WallNanos).Round(time.Microsecond),
			p.Events, formatRate(p.EventsPerSec()), p.Allocs, p.AllocBytes,
			time.Duration(p.GCPauseNanos).Round(time.Microsecond), p.MaxGoroutines)
	}
	for _, p := range snap.Phases {
		row(p.Phase, p)
	}
	fmt.Fprintf(tw, "  total\t\t%s\t\t\t%d\t%d\t%s\t\n",
		time.Duration(snap.ElapsedNanos).Round(time.Microsecond),
		snap.Allocs, snap.AllocBytes,
		time.Duration(snap.GCPauseNanos).Round(time.Microsecond))
	if err := tw.Flush(); err != nil {
		return err
	}
	pct := 0.0
	if snap.ElapsedNanos > 0 {
		pct = 100 * float64(snap.OverheadNanos) / float64(snap.ElapsedNanos)
	}
	_, err := fmt.Fprintf(w, "  sampler overhead: %s (%.3f%% of elapsed)\n",
		time.Duration(snap.OverheadNanos).Round(time.Microsecond), pct)
	return err
}

// formatRate renders events/sec compactly (12.3M/s style).
func formatRate(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG/s", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk/s", v/1e3)
	default:
		return fmt.Sprintf("%.1f/s", v)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
