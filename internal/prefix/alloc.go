package prefix

import (
	"cmp"
	"slices"

	"prefix/internal/cachesim"
	"prefix/internal/context"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/obs"
	"prefix/internal/simalloc"
)

// Capture accumulates the runtime statistics behind Tables 5 and 6: how
// many allocations matched the plan and were served from the preallocated
// region (malloc calls avoided), how many frees were intercepted, and how
// many distinct objects were captured.
type Capture struct {
	MallocsAvoided  uint64
	FreesAvoided    uint64
	ReallocsInPlace uint64
	ReallocsMoved   uint64
	FallbackMallocs uint64
	// HybridRejects counts matching ids rejected by the §2.2.2 hybrid
	// call-stack check (would-be spurious captures).
	HybridRejects uint64
	// StaticCaptured is the number of distinct static slots ever filled;
	// RecycledCaptured the number of placements into recycling rings.
	StaticCaptured   uint64
	RecycledCaptured uint64
	CheckInstr       uint64 // total instrumentation instructions executed
}

// CallsAvoided is the Table 6 "Calls Avoided" figure: heap mallocs that
// became preallocated placements.
func (c Capture) CallsAvoided() uint64 { return c.MallocsAvoided }

// Publish reports the capture statistics — placements, pattern-check
// outcomes, recycling hits, fallbacks — into reg under the given label
// pairs. Nil-safe on a nil registry.
func (c Capture) Publish(reg *obs.Registry, kv ...string) {
	if reg == nil {
		return
	}
	reg.Counter("prefix_capture_mallocs_avoided_total", kv...).Add(c.MallocsAvoided)
	reg.Counter("prefix_capture_frees_avoided_total", kv...).Add(c.FreesAvoided)
	reg.Counter("prefix_capture_reallocs_in_place_total", kv...).Add(c.ReallocsInPlace)
	reg.Counter("prefix_capture_reallocs_moved_total", kv...).Add(c.ReallocsMoved)
	reg.Counter("prefix_capture_fallback_mallocs_total", kv...).Add(c.FallbackMallocs)
	reg.Counter("prefix_capture_hybrid_rejects_total", kv...).Add(c.HybridRejects)
	reg.Counter("prefix_capture_static_total", kv...).Add(c.StaticCaptured)
	reg.Counter("prefix_capture_recycled_total", kv...).Add(c.RecycledCaptured)
	reg.Counter("prefix_capture_check_instructions_total", kv...).Add(c.CheckInstr)
}

// Allocator executes a Plan: the instrumented malloc/free/realloc of the
// paper's Figures 4–7. Allocations that do not match the plan fall back to
// the ordinary heap, so program semantics never depend on the plan being
// right — mirroring the paper's correctness argument.
type Allocator struct {
	plan *Plan
	cost cachesim.CostModel

	counters []counter // index-aligned with plan.Counters

	// sites is plan.SiteCounter compiled for lookup without hashing:
	// sites[s] is 1 + the index of site s's counter, or 0 when s is not
	// instrumented, for every s below len(sites). Instrumented sites at
	// or above denseSites are in farSites, sorted by id; only plans
	// written by hand or read from untrusted input have them, and they
	// must not size the table.
	sites    []int32
	farSites []farSite

	// live maps the address of every occupied static or ring slot to the
	// slot's size; a slot is free exactly when its address is absent.
	// This is exact because Validate rejects overlapping slots, so no
	// two slots share an address, and NewAllocator takes only validated
	// plans.
	live map[mem.Addr]uint64

	fallback *simalloc.Heap
	cap      Capture
}

// counter is one plan counter at runtime: the instance id of its latest
// allocation, its id matcher and the plan entry it executes.
type counter struct {
	id      mem.Instance
	pattern context.Pattern
	plan    *PlanCounter
}

// farSite is an instrumented site outside the dense site table, with 1
// + the index of its counter.
type farSite struct {
	site    mem.SiteID
	counter int32
}

// denseSites bounds the dense site table: sites below it are looked up
// by index. The workloads' site ids are all below 100.
const denseSites = 1 << 12

// NewAllocator builds the runtime for a plan, which must pass Validate.
func NewAllocator(plan *Plan, cost cachesim.CostModel) *Allocator {
	a := &Allocator{
		plan:     plan,
		cost:     cost,
		counters: make([]counter, len(plan.Counters)),
		live:     make(map[mem.Addr]uint64),
		fallback: simalloc.New(simalloc.HeapBase),
	}
	for i := range plan.Counters {
		pc := &plan.Counters[i]
		a.counters[i] = counter{pattern: pc.Pattern(), plan: pc}
	}
	for site, ci := range plan.SiteCounter {
		if site >= denseSites {
			a.farSites = append(a.farSites, farSite{site, int32(ci + 1)})
			continue
		}
		if int(site) >= len(a.sites) {
			a.sites = append(a.sites, make([]int32, int(site)+1-len(a.sites))...)
		}
		a.sites[site] = int32(ci + 1)
	}
	slices.SortFunc(a.farSites, func(x, y farSite) int { return cmp.Compare(x.site, y.site) })
	return a
}

// counterOf returns 1 + the index of site's counter, or 0 when the plan
// does not instrument site.
func (a *Allocator) counterOf(site mem.SiteID) int32 {
	if int(site) < len(a.sites) {
		return a.sites[site]
	}
	return a.farCounter(site)
}

// farCounter is counterOf for a site past the dense table, kept apart so
// that counterOf inlines into Malloc.
func (a *Allocator) farCounter(site mem.SiteID) int32 {
	i, ok := slices.BinarySearchFunc(a.farSites, site, func(f farSite, s mem.SiteID) int { return cmp.Compare(f.site, s) })
	if !ok {
		return 0
	}
	return a.farSites[i].counter
}

// Name implements machine.Allocator.
func (a *Allocator) Name() string { return a.plan.Variant.String() }

// Plan returns the plan being executed.
func (a *Allocator) Plan() *Plan { return a.plan }

// Capture returns the runtime capture statistics.
func (a *Allocator) Capture() Capture { return a.cap }

// Region returns the preallocated region range.
func (a *Allocator) Region() mem.Range { return a.plan.Region() }

// hybridSigInstr models the call-stack hash comparison the hybrid
// context adds on top of the id check.
const hybridSigInstr = 8

// Malloc implements machine.Allocator (paper Figure 4, and Figure 7 for
// recycling counters).
func (a *Allocator) Malloc(site mem.SiteID, stack mem.StackSig, size uint64) (mem.Addr, uint64) {
	ci := a.counterOf(site)
	if ci == 0 {
		a.cap.FallbackMallocs++
		return a.fallback.Malloc(size), a.cost.MallocInstr
	}
	c := &a.counters[ci-1]
	c.id++
	check := c.pattern.CheckInstr()
	a.cap.CheckInstr += check

	// Figure 7: object recycling into slot (id-1) mod N.
	if r := c.plan.Recycle; r != nil {
		addr := RegionBase + mem.Addr(r.Base+uint64(c.id-1)%uint64(r.N)*r.SlotSize)
		if _, taken := a.live[addr]; !taken && size <= r.SlotSize {
			a.live[addr] = r.SlotSize
			a.cap.MallocsAvoided++
			a.cap.RecycledCaptured++
			return addr, check + 4
		}
		a.cap.FallbackMallocs++
		return a.fallback.Malloc(size), a.cost.MallocInstr + check
	}

	// Figure 4: static preallocated placement. Under the hybrid context
	// (§2.2.2) the profiled call-stack signature must match as well.
	if c.pattern.Matches(c.id) {
		if sigs := c.plan.Sigs; sigs != nil {
			a.cap.CheckInstr += hybridSigInstr
			if want, ok := sigs[c.id]; ok && want != stack {
				a.cap.HybridRejects++
				a.cap.FallbackMallocs++
				return a.fallback.Malloc(size), a.cost.MallocInstr + check + hybridSigInstr
			}
		}
		// A static slot serves one id of one counter and ids only grow,
		// so unlike a ring slot it is never taken when its id comes up.
		if slot, ok := c.plan.SlotOf[c.id]; ok && size <= slot.Size {
			addr := RegionBase + mem.Addr(slot.Offset)
			a.live[addr] = slot.Size
			a.cap.MallocsAvoided++
			a.cap.StaticCaptured++
			return addr, check + 4
		}
	}
	a.cap.FallbackMallocs++
	return a.fallback.Malloc(size), a.cost.MallocInstr + check
}

// regionCheckInstr models the `ObjectAddress ∈ PreallocMemory` range check
// added to every free/realloc site (Figures 5 and 6).
const regionCheckInstr = 2

// Free implements machine.Allocator (paper Figure 5). Freeing a region
// address that is not live — never handed out, or already freed — is the
// same no-op mark, keeping the transformation semantics-preserving.
func (a *Allocator) Free(addr mem.Addr) uint64 {
	if a.plan.Region().Contains(addr) {
		delete(a.live, addr)
		a.cap.FreesAvoided++
		return regionCheckInstr + 2
	}
	a.fallback.Free(addr)
	return a.cost.FreeInstr + regionCheckInstr
}

// Realloc implements machine.Allocator (paper Figure 6).
func (a *Allocator) Realloc(addr mem.Addr, size uint64) (mem.Addr, uint64) {
	if a.plan.Region().Contains(addr) {
		cur := a.live[addr] // 0 when addr is not a live slot
		if size <= cur {
			// Common case per the paper: the new size fits the
			// preallocated slot.
			a.cap.ReallocsInPlace++
			return addr, regionCheckInstr + 2
		}
		// Move the object out of the region: malloc, copy, mark free.
		na := a.fallback.Malloc(size)
		delete(a.live, addr)
		a.cap.ReallocsMoved++
		copyInstr := cur / 8 // one instruction per copied word
		return na, a.cost.MallocInstr + regionCheckInstr + copyInstr
	}
	na, _ := a.fallback.Realloc(addr, size)
	return na, a.cost.ReallocInstr + regionCheckInstr
}

// PeakBytes returns the modeled peak memory: the whole preallocated
// region (reserved up front) plus the fallback heap's peak.
func (a *Allocator) PeakBytes() uint64 {
	return a.plan.RegionSize + a.fallback.Stats().PeakBytes
}

// Publish reports the allocator's full runtime state into reg: the
// capture statistics, region size/occupancy gauges, and the fallback
// heap's footprint and fragmentation. Nil-safe on a nil registry.
func (a *Allocator) Publish(reg *obs.Registry, kv ...string) {
	if reg == nil {
		return
	}
	a.cap.Publish(reg, kv...)

	var live uint64
	for _, size := range a.live {
		live += size
	}
	reg.Gauge("prefix_region_bytes", kv...).Set(float64(a.plan.RegionSize))
	reg.Gauge("prefix_region_live_bytes", kv...).Set(float64(live))
	if a.plan.RegionSize > 0 {
		reg.Gauge("prefix_region_occupancy", kv...).Set(float64(live) / float64(a.plan.RegionSize))
	}
	reg.Gauge("prefix_peak_bytes", kv...).Set(float64(a.PeakBytes()))
	a.fallback.Stats().Publish(reg, kv...)
}

var _ machine.Allocator = (*Allocator)(nil)
