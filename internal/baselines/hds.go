package baselines

import (
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/simalloc"
)

// HDSRegionBase is where the HDS baseline's separate memory region lives.
const HDSRegionBase mem.Addr = 0x2000_0000_0000

// HDSAlloc is the HDS [8] baseline: the profile identifies the malloc
// sites that allocate hot-data-stream objects, and at runtime *every*
// allocation from those sites is redirected to a separate memory region in
// allocation order. There is no per-instance check (Table 1: "Hot Object
// Check: no checks and no overhead"), so chosen sites that also allocate
// non-HDS objects pollute the region — the paper's first limitation.
type HDSAlloc struct {
	// sites holds the chosen sites only, each with the number of
	// allocations it has made so far.
	sites map[mem.SiteID]mem.Instance
	// region is managed like a normal heap, per the paper: "malloc/free
	// overhead similar to other heap objects".
	region   *simalloc.Heap
	fallback *simalloc.Heap
	cost     cachesim.CostModel

	hot       HotSet
	pollution Pollution
}

// NewHDS builds the HDS baseline. sites is the profile-chosen site set;
// hot is the ground-truth hot set used only for pollution accounting.
func NewHDS(sites []mem.SiteID, hot HotSet, cost cachesim.CostModel) *HDSAlloc {
	s := make(map[mem.SiteID]mem.Instance, len(sites))
	for _, id := range sites {
		s[id] = 0
	}
	return &HDSAlloc{
		sites:    s,
		region:   simalloc.New(HDSRegionBase),
		fallback: simalloc.New(simalloc.HeapBase),
		cost:     cost,
		hot:      hot,
	}
}

// Name implements machine.Allocator.
func (h *HDSAlloc) Name() string { return "hds" }

// Malloc implements machine.Allocator.
func (h *HDSAlloc) Malloc(site mem.SiteID, _ mem.StackSig, size uint64) (mem.Addr, uint64) {
	if n, chosen := h.sites[site]; chosen {
		n++
		h.sites[site] = n
		h.pollution.All++
		if h.hot.Has(site, n) {
			h.pollution.Hot++
		}
		return h.region.Malloc(size), h.cost.MallocInstr
	}
	return h.fallback.Malloc(size), h.cost.MallocInstr
}

// Free implements machine.Allocator.
func (h *HDSAlloc) Free(addr mem.Addr) uint64 {
	if addr >= HDSRegionBase {
		h.region.Free(addr)
	} else {
		h.fallback.Free(addr)
	}
	return h.cost.FreeInstr
}

// Realloc implements machine.Allocator.
func (h *HDSAlloc) Realloc(addr mem.Addr, size uint64) (mem.Addr, uint64) {
	if addr >= HDSRegionBase {
		na, _ := h.region.Realloc(addr, size)
		return na, h.cost.ReallocInstr
	}
	na, _ := h.fallback.Realloc(addr, size)
	return na, h.cost.ReallocInstr
}

// Pollution returns the Table 4 counts.
func (h *HDSAlloc) Pollution() Pollution { return h.pollution }

// PeakBytes returns combined peak footprint of region and heap.
func (h *HDSAlloc) PeakBytes() uint64 {
	return h.region.Stats().PeakBytes + h.fallback.Stats().PeakBytes
}

var _ machine.Allocator = (*HDSAlloc)(nil)
