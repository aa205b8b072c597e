// Package baselines implements the allocation strategies PreFix is
// evaluated against:
//
//   - Baseline: the plain heap allocator (compiled -O3 binary in the
//     paper);
//   - HDS (Chilimbi & Shaham 2006): every allocation from a chosen set of
//     malloc sites is redirected to a separate memory region, in
//     allocation order;
//   - HALO (Savage & Jones 2020): allocations whose call-stack signature
//     belongs to an affinity group are placed in that group's pool, grown
//     on demand in chunks.
//
// Both prior techniques suffer the pollution and no-reordering limitations
// the paper's Table 1 summarizes; the implementations here reproduce those
// limitations faithfully so Tables 3 and 4 can be regenerated.
package baselines

import (
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/obs"
	"prefix/internal/simalloc"
)

// Baseline is the unmodified allocator: everything goes to the heap.
type Baseline struct {
	Heap *simalloc.Heap
	cost cachesim.CostModel
}

// NewBaseline returns the baseline strategy.
func NewBaseline(cost cachesim.CostModel) *Baseline {
	return &Baseline{Heap: simalloc.New(simalloc.HeapBase), cost: cost}
}

// Name implements machine.Allocator.
func (b *Baseline) Name() string { return "baseline" }

// Malloc implements machine.Allocator.
func (b *Baseline) Malloc(_ mem.SiteID, _ mem.StackSig, size uint64) (mem.Addr, uint64) {
	return b.Heap.Malloc(size), b.cost.MallocInstr
}

// Free implements machine.Allocator.
func (b *Baseline) Free(addr mem.Addr) uint64 {
	b.Heap.Free(addr)
	return b.cost.FreeInstr
}

// Realloc implements machine.Allocator.
func (b *Baseline) Realloc(addr mem.Addr, size uint64) (mem.Addr, uint64) {
	na, _ := b.Heap.Realloc(addr, size)
	return na, b.cost.ReallocInstr
}

// PeakBytes returns the heap's peak footprint.
func (b *Baseline) PeakBytes() uint64 { return b.Heap.Stats().PeakBytes }

var _ machine.Allocator = (*Baseline)(nil)

// HotSet records which dynamic allocations are actually hot, keyed by
// static site and dynamic instance. Strategies use it purely for pollution
// accounting (Table 4) — it never influences placement decisions of the
// HDS/HALO baselines, which cannot distinguish instances at runtime.
type HotSet map[mem.SiteID]map[mem.Instance]bool

// Has reports whether the instance-th allocation of site is hot.
func (h HotSet) Has(site mem.SiteID, inst mem.Instance) bool {
	return h[site][inst]
}

// Add marks an instance hot.
func (h HotSet) Add(site mem.SiteID, inst mem.Instance) {
	m := h[site]
	if m == nil {
		m = make(map[mem.Instance]bool)
		h[site] = m
	}
	m[inst] = true
}

// Pollution is the Table 4 accounting: how many objects were directed to
// the technique's special region(s), and how many of those are hot.
type Pollution struct {
	Hot uint64 // hot objects captured in the region
	All uint64 // all objects placed in the region
}

// Spurious returns the number of polluting (non-hot) objects.
func (p Pollution) Spurious() uint64 { return p.All - p.Hot }

// Publish reports the Table 4 pollution counters into reg under the given
// label pairs. Nil-safe on a nil registry.
func (p Pollution) Publish(reg *obs.Registry, kv ...string) {
	if reg == nil {
		return
	}
	reg.Counter("prefix_pollution_captured_total", kv...).Add(p.All)
	reg.Counter("prefix_pollution_hot_total", kv...).Add(p.Hot)
	reg.Counter("prefix_pollution_spurious_total", kv...).Add(p.Spurious())
}
