// Package machine is the execution environment of the reproduction: the
// piece that plays the role of the real CPU + DynamoRIO in the paper's
// pipeline (Figure 8). Workloads are written against the Env interface and
// are completely agnostic of which allocation strategy serves them; the
// machine couples an Allocator, a cache/TLB hierarchy, an optional trace
// recorder, and a call-stack tracker, and accumulates the metrics that the
// evaluation tables report.
package machine

import (
	"fmt"
	"sort"

	"prefix/internal/cachesim"
	"prefix/internal/callstack"
	"prefix/internal/mem"
	"prefix/internal/obs"
	"prefix/internal/trace"
)

// Env is what a workload programs against. It mirrors the operations a
// traced binary performs: call/return (for calling-context techniques),
// malloc/free/realloc, data reads/writes, and pure compute.
type Env interface {
	// Enter pushes a function frame; Leave pops it. Only calling-context
	// based strategies (HALO) observe the stack.
	Enter(fn mem.FuncID)
	Leave()
	// Malloc allocates size bytes at the given static malloc site and
	// returns the simulated address.
	Malloc(site mem.SiteID, size uint64) mem.Addr
	// Free releases an allocation.
	Free(addr mem.Addr)
	// Realloc resizes an allocation, possibly moving it.
	Realloc(addr mem.Addr, size uint64) mem.Addr
	// Read and Write simulate data accesses of the given width.
	Read(addr mem.Addr, size uint64)
	Write(addr mem.Addr, size uint64)
	// Compute charges n non-memory instructions.
	Compute(n uint64)
}

// Allocator is an allocation strategy under test: the baseline heap, the
// HDS and HALO baselines, or PreFix. The returned instr values are the
// dynamic instruction cost of the operation including any underlying heap
// work, so strategies with cheap fast paths (preallocation hit: a counter
// bump and a table lookup) are rewarded exactly as in Table 6.
type Allocator interface {
	Name() string
	Malloc(site mem.SiteID, stack mem.StackSig, size uint64) (addr mem.Addr, instr uint64)
	Free(addr mem.Addr) (instr uint64)
	Realloc(addr mem.Addr, size uint64) (newAddr mem.Addr, instr uint64)
}

// Metrics summarizes one run. The JSON field names are a stable interface
// (the obs JSON exporter and external tooling key on them); change them
// only with a migration note.
type Metrics struct {
	Instr       uint64          `json:"instr"`       // total dynamic instructions (compute + memory + allocator)
	MemInstr    uint64          `json:"mem_instr"`   // instructions that were memory accesses
	AllocInstr  uint64          `json:"alloc_instr"` // instructions spent inside the allocator
	Mallocs     uint64          `json:"mallocs"`
	Frees       uint64          `json:"frees"`
	Reallocs    uint64          `json:"reallocs"`
	Cache       cachesim.Counts `json:"cache"`
	Cycles      float64         `json:"cycles"`
	StallCycles float64         `json:"stall_cycles"`
}

// Events is the number of simulated events the run generated: one per
// memory access plus one per allocator call (malloc/free/realloc) —
// exactly the recorder's event count for a recorded run, so host-cost
// throughput (events/sec) is comparable between recorded and
// recording-free runs.
func (m Metrics) Events() uint64 {
	return m.MemInstr + m.Mallocs + m.Frees + m.Reallocs
}

// String returns a one-line human-readable summary of the run.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"cycles=%.4g instr=%d (mem=%d alloc=%d) mallocs=%d frees=%d reallocs=%d L1miss=%.3f%% LLCmiss=%.4f%% stalls=%.1f%%",
		m.Cycles, m.Instr, m.MemInstr, m.AllocInstr, m.Mallocs, m.Frees, m.Reallocs,
		100*m.Cache.L1MissRate(), 100*m.Cache.LLCMissRate(), m.BackendStallPct())
}

// Publish reports the run's metrics — instruction mix, allocator traffic,
// cache/TLB hits and misses, modeled cycles — into reg under the given
// label pairs (typically benchmark and run). Nil-safe: a nil registry
// makes this a no-op, so callers never branch.
func (m Metrics) Publish(reg *obs.Registry, kv ...string) {
	if reg == nil {
		return
	}
	reg.Counter("prefix_run_instructions_total", kv...).Add(m.Instr)
	reg.Counter("prefix_run_mem_instructions_total", kv...).Add(m.MemInstr)
	reg.Counter("prefix_run_alloc_instructions_total", kv...).Add(m.AllocInstr)
	reg.Counter("prefix_run_mallocs_total", kv...).Add(m.Mallocs)
	reg.Counter("prefix_run_frees_total", kv...).Add(m.Frees)
	reg.Counter("prefix_run_reallocs_total", kv...).Add(m.Reallocs)
	reg.Gauge("prefix_run_cycles", kv...).Set(m.Cycles)
	reg.Gauge("prefix_run_stall_cycles", kv...).Set(m.StallCycles)
	reg.Gauge("prefix_run_backend_stall_pct", kv...).Set(m.BackendStallPct())

	c := m.Cache
	reg.Counter("prefix_cache_accesses_total", kv...).Add(c.Accesses)
	reg.Counter("prefix_cache_l1_hits_total", kv...).Add(c.L1Hits)
	reg.Counter("prefix_cache_l1_misses_total", kv...).Add(c.L1Misses)
	reg.Counter("prefix_cache_llc_hits_total", kv...).Add(c.LLCHits)
	reg.Counter("prefix_cache_llc_misses_total", kv...).Add(c.LLCMisses)
	reg.Counter("prefix_cache_prefetches_total", kv...).Add(c.Prefetches)
	reg.Counter("prefix_tlb1_misses_total", kv...).Add(c.TLB1Miss)
	reg.Counter("prefix_tlb2_misses_total", kv...).Add(c.TLB2Miss)
	reg.Gauge("prefix_cache_l1_miss_rate", kv...).Set(c.L1MissRate())
	reg.Gauge("prefix_cache_llc_miss_rate", kv...).Set(c.LLCMissRate())
}

// BackendStallPct is the share of cycles stalled on memory, the paper's
// Figure 13 metric.
func (m Metrics) BackendStallPct() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return 100 * m.StallCycles / m.Cycles
}

// batchEvents is the machine-side event hand-off batch size: recorded
// events accumulate in a preallocated buffer of this many entries and
// reach the recorder one bulk call per batch. Small enough that the
// extra resident buffer is noise next to a trace chunk, large enough to
// amortize the interface dispatch to well under an add per event.
const batchEvents = 256

// eventBatch batches the hand-off from a machine (or a group of
// machines sharing one recorder) to its trace recorder. The per-event
// cost is an append into a preallocated buffer through a concrete
// method — no interface dispatch; the recorder's interface is crossed
// once per batch, in RecordBatch. A group's machines share one batch,
// so the recorded interleaving is exactly the order the workload drove
// the thread Envs in.
type eventBatch struct {
	rec trace.EventRecorder
	buf []trace.Event
}

func newEventBatch(rec trace.EventRecorder) *eventBatch {
	if rec == nil {
		return nil
	}
	return &eventBatch{rec: rec, buf: make([]trace.Event, 0, batchEvents)}
}

// add appends one event, flushing when the batch fills.
//
//prefix:hotpath
func (b *eventBatch) add(ev trace.Event) {
	//lint:ignore hotalloc buffer is preallocated at cap batchEvents and flushed at cap, so this append never grows
	b.buf = append(b.buf, ev)
	if len(b.buf) == cap(b.buf) {
		b.flush()
	}
}

// flush hands the buffered events to the recorder and empties the
// batch, keeping its storage. It runs once per batchEvents events, and
// is kept out of line so that add, the per-event path, stays within the
// inlining budget.
//
//prefix:hotpath
//go:noinline
func (b *eventBatch) flush() {
	if len(b.buf) == 0 {
		return
	}
	//lint:ignore hotcall one dispatch per 256-event batch is the amortization this type exists for
	b.rec.RecordBatch(b.buf)
	b.buf = b.buf[:0]
}

// Machine is a single logical hardware thread.
type Machine struct {
	alloc  Allocator
	hier   *cachesim.Hierarchy
	cost   cachesim.CostModel
	rec    *eventBatch // nil when not tracing; shared across a group
	attrib *attrib     // nil unless WithAttribution
	stack  callstack.Stack

	m Metrics
}

// Option configures a Machine.
type Option func(*Machine)

// WithRecorder attaches a trace recorder (profiling runs): the
// in-memory *trace.Recorder, the bounded-memory *trace.SpillRecorder, or
// a *trace.Analyzer that analyzes the run as it executes. Events reach
// the recorder through RecordBatch, batchEvents at a time; Finish
// flushes the final partial batch and adds the run's instruction count,
// so read the recorder only after Finish.
func WithRecorder(r trace.EventRecorder) Option {
	return func(m *Machine) { m.rec = newEventBatch(r) }
}

// WithAttribution enables per-site attribution: every cache/TLB event is
// charged to the malloc site owning the touched address, readable via
// Attrib after the run. Costs one range lookup per access and O(live
// allocations + sites) memory; machines without it keep the
// zero-allocation fast path.
func WithAttribution() Option {
	return func(m *Machine) { m.attrib = newAttrib() }
}

// New builds a machine over the given allocator and cache configuration.
func New(alloc Allocator, cfg cachesim.Config, opts ...Option) *Machine {
	m := &Machine{
		alloc: alloc,
		hier:  cachesim.New(cfg),
		cost:  cfg.Cost,
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// newShared builds a machine whose LLC is shared (multithreaded groups).
// The event batch is shared too, so the group records one stream in
// exactly the interleaving the workload chose.
func newShared(alloc Allocator, cfg cachesim.Config, llc *cachesim.Cache, batch *eventBatch) *Machine {
	return &Machine{
		alloc: alloc,
		hier:  cachesim.NewShared(cfg, llc),
		cost:  cfg.Cost,
		rec:   batch,
	}
}

// Enter implements Env.
func (m *Machine) Enter(fn mem.FuncID) {
	m.stack.Push(fn)
	m.m.Instr += 2 // call + frame setup
}

// Leave implements Env.
func (m *Machine) Leave() {
	m.stack.Pop()
	m.m.Instr++
}

// Malloc implements Env.
//
//prefix:hotpath
func (m *Machine) Malloc(site mem.SiteID, size uint64) mem.Addr {
	//lint:ignore hotcall the Allocator under test is the experiment's variable; one dispatch per allocator event is the unit of work measured
	addr, instr := m.alloc.Malloc(site, m.stack.Sig(), size)
	m.m.Instr += instr
	m.m.AllocInstr += instr
	m.m.Mallocs++
	if m.attrib != nil {
		//lint:ignore hotcall attribution is opt-in observability off the pinned fast path; disabled runs pay only this nil check
		m.attrib.register(site, addr, size)
	}
	if m.rec != nil {
		m.rec.add(trace.Event{Kind: trace.KindAlloc, Site: site, Stack: m.stack.Sig(), Addr: addr, Size: size})
	}
	return addr
}

// Free implements Env.
//
//prefix:hotpath
func (m *Machine) Free(addr mem.Addr) {
	if addr == mem.NilAddr {
		return
	}
	//lint:ignore hotcall the Allocator under test is the experiment's variable; one dispatch per allocator event is the unit of work measured
	instr := m.alloc.Free(addr)
	m.m.Instr += instr
	m.m.AllocInstr += instr
	m.m.Frees++
	if m.attrib != nil {
		//lint:ignore hotcall attribution is opt-in observability off the pinned fast path; disabled runs pay only this nil check
		m.attrib.unregister(addr)
	}
	if m.rec != nil {
		m.rec.add(trace.Event{Kind: trace.KindFree, Addr: addr})
	}
}

// Realloc implements Env.
//
//prefix:hotpath
func (m *Machine) Realloc(addr mem.Addr, size uint64) mem.Addr {
	//lint:ignore hotcall the Allocator under test is the experiment's variable; one dispatch per allocator event is the unit of work measured
	na, instr := m.alloc.Realloc(addr, size)
	m.m.Instr += instr
	m.m.AllocInstr += instr
	m.m.Reallocs++
	if m.attrib != nil {
		//lint:ignore hotcall attribution is opt-in observability off the pinned fast path; disabled runs pay only this nil check
		m.attrib.realloc(addr, na, size)
	}
	if m.rec != nil {
		m.rec.add(trace.Event{Kind: trace.KindRealloc, Addr: addr, Addr2: na, Size: size})
	}
	return na
}

// Read implements Env.
//
//prefix:hotpath
func (m *Machine) Read(addr mem.Addr, size uint64) { m.access(addr, size, false) }

// Write implements Env.
//
//prefix:hotpath
func (m *Machine) Write(addr mem.Addr, size uint64) { m.access(addr, size, true) }

// access is the per-event hot path: a flat hierarchy walk, two metric
// adds, and — on the recording-free path — nothing else but one nil
// check. Recording runs append into the concrete event batch, so the
// recorder interface is crossed once per batch, not per event.
//
//prefix:hotpath
func (m *Machine) access(addr mem.Addr, size uint64, write bool) {
	if m.attrib == nil {
		m.hier.Access(addr, size)
	} else {
		// Attribution mode walks the identical Access path; the delta is
		// a snapshot subtract, so aggregate Counts cannot diverge.
		//lint:ignore hotcall attribution is opt-in observability off the pinned fast path; disabled runs pay only this nil check
		m.attrib.observe(addr, m.hier.AccessDelta(addr, size))
	}
	m.m.Instr++
	m.m.MemInstr++
	if m.rec != nil {
		m.rec.add(trace.Event{Kind: trace.KindAccess, Addr: addr, Size: size, Write: write})
	}
}

// Compute implements Env.
//
//prefix:hotpath
func (m *Machine) Compute(n uint64) { m.m.Instr += n }

// Finish closes the run and returns the metrics. It flushes the final
// partial event batch to the recorder, so the recorded trace is
// complete once every machine sharing the recorder has finished.
func (m *Machine) Finish() Metrics {
	m.m.Cache = m.hier.Counts()
	m.m.Cycles = m.cost.Cycles(m.m.Instr-m.m.MemInstr, m.m.Cache)
	m.m.StallCycles = m.cost.StallCycles(m.m.Cache)
	if m.rec != nil {
		m.rec.flush()
		m.rec.rec.AddInstr(m.m.Instr)
	}
	return m.m
}

// Attrib returns the run's per-site attribution snapshot. Machines built
// without WithAttribution return the zero (Enabled false) snapshot, so
// callers never branch on the mode.
func (m *Machine) Attrib() AttribCounts {
	if m.attrib == nil {
		return AttribCounts{}
	}
	a := m.attrib
	out := AttribCounts{Enabled: true, Sites: make([]SiteAttrib, len(a.cells))}
	for i, c := range a.cells {
		out.Sites[i] = SiteAttrib{Site: a.sites[i], Counts: c, StallCycles: m.cost.StallCycles(c)}
	}
	sort.Slice(out.Sites, func(i, j int) bool { return out.Sites[i].Site < out.Sites[j].Site })
	return out
}

var _ Env = (*Machine)(nil)

// Group is a set of logical threads with private L1/TLB hierarchies and a
// shared LLC and allocator, used for the multithreaded evaluation
// (Figure 10). The simulation is deterministic: the workload decides the
// interleaving by choosing which thread Env it drives.
type Group struct {
	machines []*Machine
}

// NewGroup builds k thread environments sharing one LLC and allocator.
// When rec is non-nil all threads record into the same trace (the paper
// collects a single trace with the default thread count).
func NewGroup(alloc Allocator, cfg cachesim.Config, k int, rec trace.EventRecorder) *Group {
	llc := cachesim.SharedLLC(cfg)
	batch := newEventBatch(rec)
	g := &Group{}
	for i := 0; i < k; i++ {
		g.machines = append(g.machines, newShared(alloc, cfg, llc, batch))
	}
	return g
}

// Env returns thread i's environment.
func (g *Group) Env(i int) Env { return g.machines[i] }

// Size returns the thread count.
func (g *Group) Size() int { return len(g.machines) }

// Finish returns per-thread metrics plus the group's modeled parallel
// time: the maximum per-thread cycle count (threads run concurrently; the
// slowest one bounds wall clock).
func (g *Group) Finish() (threads []Metrics, parallelCycles float64, total Metrics) {
	for _, m := range g.machines {
		mm := m.Finish()
		threads = append(threads, mm)
		if mm.Cycles > parallelCycles {
			parallelCycles = mm.Cycles
		}
		total.Instr += mm.Instr
		total.MemInstr += mm.MemInstr
		total.AllocInstr += mm.AllocInstr
		total.Mallocs += mm.Mallocs
		total.Frees += mm.Frees
		total.Reallocs += mm.Reallocs
		total.Cache.Add(mm.Cache)
		total.Cycles += mm.Cycles
		total.StallCycles += mm.StallCycles
	}
	return threads, parallelCycles, total
}
