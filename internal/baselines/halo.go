package baselines

import (
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/simalloc"
)

// HALO address-space layout: each affinity group's pool gets a private
// 1 GiB window above HALOPoolBase; chunks are carved from the window.
const (
	HALOPoolBase   mem.Addr = 0x3000_0000_0000
	haloPoolStride uint64   = 1 << 30
	// HALOChunk is the on-demand growth quantum of a pool ("reserved
	// regions, grown on demand", Table 1).
	HALOChunk uint64 = 64 << 10
)

// HALOGroup identifies one affinity group of allocation contexts.
type HALOGroup int

// HALOConfig is the profile product HALO consumes: call-stack signatures
// grouped by access affinity. Every runtime allocation whose stack
// signature appears here is placed in its group's pool.
type HALOConfig struct {
	Groups map[mem.StackSig]HALOGroup
	// NumGroups is 1 + the highest group id.
	NumGroups int
}

// HALO is the HALO [21] baseline. It disambiguates allocation sites by
// calling context (stack signature) and pools same-group allocations
// together. Because a signature identifies *every* allocation executed
// under that stack — not a specific dynamic instance — objects that merely
// share the context of a hot allocation pollute the pool (paper §2.2 and
// Table 4), and objects within a pool stay in allocation order.
type HALO struct {
	cfg      HALOConfig
	pools    []*haloPool
	fallback *simalloc.Heap
	cost     cachesim.CostModel

	hot       HotSet
	counters  map[mem.SiteID]mem.Instance
	pollution Pollution
	freeMarks map[mem.Addr]uint64 // live pool allocations: addr -> size
}

type haloPool struct {
	base   mem.Addr
	bump   mem.Addr
	limit  mem.Addr // end of currently reserved chunks
	window mem.Addr // end of the pool's address window
	peak   uint64
	// freeBySize recycles freed pool blocks (size-class free lists):
	// HALO's pools are managed regions, not leak-forever bumps.
	freeBySize map[uint64][]mem.Addr
}

// NewHALO builds the HALO baseline.
func NewHALO(cfg HALOConfig, hot HotSet, cost cachesim.CostModel) *HALO {
	h := &HALO{
		cfg:       cfg,
		fallback:  simalloc.New(simalloc.HeapBase),
		cost:      cost,
		hot:       hot,
		counters:  make(map[mem.SiteID]mem.Instance),
		freeMarks: make(map[mem.Addr]uint64),
	}
	for g := 0; g < cfg.NumGroups; g++ {
		base := HALOPoolBase + mem.Addr(uint64(g)*haloPoolStride)
		h.pools = append(h.pools, &haloPool{
			base: base, bump: base, limit: base,
			window:     base + mem.Addr(haloPoolStride),
			freeBySize: make(map[uint64][]mem.Addr),
		})
	}
	return h
}

// Name implements machine.Allocator.
func (h *HALO) Name() string { return "halo" }

// haloCheckInstr models the runtime cost of hashing the call stack and
// probing the signature table on every instrumented allocation (Table 1:
// "Hot Object Check: get the call stack ... and check against a
// signature").
const haloCheckInstr = 12

// Malloc implements machine.Allocator.
func (h *HALO) Malloc(site mem.SiteID, stack mem.StackSig, size uint64) (mem.Addr, uint64) {
	h.counters[site]++
	g, ok := h.cfg.Groups[stack]
	if !ok || int(g) >= len(h.pools) {
		return h.fallback.Malloc(size), h.cost.MallocInstr + haloCheckInstr
	}
	p := h.pools[g]
	size = mem.AlignUp(maxU64(size, 16), 16)
	h.pollution.All++
	if h.hot.Has(site, h.counters[site]) {
		h.pollution.Hot++
	}
	// Reuse a freed block of the same size class if one exists.
	if list := p.freeBySize[size]; len(list) > 0 {
		addr := list[len(list)-1]
		p.freeBySize[size] = list[:len(list)-1]
		h.freeMarks[addr] = size
		return addr, h.cost.MallocInstr + haloCheckInstr
	}
	if p.bump+mem.Addr(size) > p.limit {
		grow := mem.AlignUp(size, HALOChunk)
		if p.limit+mem.Addr(grow) > p.window {
			// Pool window exhausted; spill to the heap.
			return h.fallback.Malloc(size), h.cost.MallocInstr + haloCheckInstr
		}
		p.limit += mem.Addr(grow)
	}
	addr := p.bump
	p.bump += mem.Addr(size)
	if used := uint64(p.bump - p.base); used > p.peak {
		p.peak = used
	}
	h.freeMarks[addr] = size
	// Pool management costs are "similar to other heap objects"
	// (Table 1): chunk bookkeeping plus the signature check.
	return addr, h.cost.MallocInstr + haloCheckInstr
}

// Free implements machine.Allocator.
func (h *HALO) Free(addr mem.Addr) uint64 {
	if addr >= HALOPoolBase {
		h.release(addr)
		return h.cost.FreeInstr
	}
	h.fallback.Free(addr)
	return h.cost.FreeInstr
}

// release is a pool block's managed deallocation: the block returns to
// its pool's size-class free list for reuse.
func (h *HALO) release(addr mem.Addr) {
	size, ok := h.freeMarks[addr]
	if !ok {
		return
	}
	delete(h.freeMarks, addr)
	g := int(uint64(addr-HALOPoolBase) / haloPoolStride)
	if g >= 0 && g < len(h.pools) {
		p := h.pools[g]
		p.freeBySize[size] = append(p.freeBySize[size], addr)
	}
}

// Realloc implements machine.Allocator. A pool block that still fits
// stays in place; one that grows moves out to the heap, and its block
// returns to the pool as on Free. The move is not an allocation: it
// bumps no site counter and counts no pollution. When the heap refuses
// the size, the old block stays the program's and stays out of the pool.
func (h *HALO) Realloc(addr mem.Addr, size uint64) (mem.Addr, uint64) {
	if addr >= HALOPoolBase {
		if size <= h.freeMarks[addr] {
			return addr, h.cost.ReallocInstr
		}
		na := h.fallback.Malloc(size)
		if na == mem.NilAddr {
			return na, h.cost.ReallocInstr
		}
		h.release(addr)
		return na, h.cost.ReallocInstr
	}
	na, _ := h.fallback.Realloc(addr, size)
	return na, h.cost.ReallocInstr
}

// Pollution returns the Table 4 counts.
func (h *HALO) Pollution() Pollution { return h.pollution }

// PeakBytes returns the combined peak footprint: reserved pool chunks plus
// the heap.
func (h *HALO) PeakBytes() uint64 {
	total := h.fallback.Stats().PeakBytes
	for _, p := range h.pools {
		total += mem.AlignUp(p.peak, HALOChunk)
	}
	return total
}

var _ machine.Allocator = (*HALO)(nil)

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
