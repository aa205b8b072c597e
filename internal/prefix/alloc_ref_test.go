package prefix

// This file keeps the map-based PreFix runtime that Allocator replaced,
// verbatim apart from its names, as the reference the allocator is
// differential-tested against (FuzzAllocatorMatchesReference). It
// records occupancy three times over: by region offset, by address and
// per recycling ring. Its behaviour is the specification: a change to
// Allocator that makes any address, instruction cost, Capture or
// published series differ from refAllocator's is a change to the
// simulated runtime, not a simplification.

import (
	"prefix/internal/cachesim"
	"prefix/internal/context"
	"prefix/internal/mem"
	"prefix/internal/obs"
	"prefix/internal/simalloc"
)

// refAllocator executes a Plan: the instrumented malloc/free/realloc of the
// paper's Figures 4–7. Allocations that do not match the plan fall back to
// the ordinary heap, so program semantics never depend on the plan being
// right — mirroring the paper's correctness argument.
type refAllocator struct {
	plan *Plan
	cost cachesim.CostModel

	counters []mem.Instance    // current counter values
	patterns []context.Pattern // runtime matchers, index-aligned with plan.Counters

	// Static slot state.
	slotLive map[uint64]bool         // region offset -> occupied
	byAddr   map[mem.Addr]Slot       // live region address -> slot
	ringOf   map[mem.Addr]refRingRef // live ring address -> which ring slot

	// Recycling rings, index-aligned with plan.Counters (nil when the
	// counter has no ring).
	rings []*refRing

	fallback *simalloc.Heap
	cap      Capture
}

type refRing struct {
	plan RecyclePlan
	free []bool
}

type refRingRef struct {
	counter int
	slot    int
}

// newRefAllocator builds the runtime for a validated plan.
func newRefAllocator(plan *Plan, cost cachesim.CostModel) *refAllocator {
	a := &refAllocator{
		plan:     plan,
		cost:     cost,
		counters: make([]mem.Instance, len(plan.Counters)),
		patterns: make([]context.Pattern, len(plan.Counters)),
		slotLive: make(map[uint64]bool),
		byAddr:   make(map[mem.Addr]Slot),
		ringOf:   make(map[mem.Addr]refRingRef),
		rings:    make([]*refRing, len(plan.Counters)),
		fallback: simalloc.New(0x0001_0000),
	}
	for i := range plan.Counters {
		a.patterns[i] = plan.Counters[i].Pattern()
		if r := plan.Counters[i].Recycle; r != nil {
			rg := &refRing{plan: *r, free: make([]bool, r.N)}
			for j := range rg.free {
				rg.free[j] = true
			}
			a.rings[i] = rg
		}
	}
	return a
}

// Name implements machine.Allocator.
func (a *refAllocator) Name() string { return a.plan.Variant.String() }

// Plan returns the plan being executed.
func (a *refAllocator) Plan() *Plan { return a.plan }

// Capture returns the runtime capture statistics.
func (a *refAllocator) Capture() Capture { return a.cap }

// Region returns the preallocated region range.
func (a *refAllocator) Region() mem.Range { return a.plan.Region() }

// Malloc implements machine.Allocator (paper Figure 4, and Figure 7 for
// recycling counters).
func (a *refAllocator) Malloc(site mem.SiteID, stack mem.StackSig, size uint64) (mem.Addr, uint64) {
	ci, instrumented := a.plan.SiteCounter[site]
	if !instrumented {
		a.cap.FallbackMallocs++
		return a.fallback.Malloc(size), a.cost.MallocInstr
	}
	a.counters[ci]++
	id := a.counters[ci]
	check := a.patterns[ci].CheckInstr()
	a.cap.CheckInstr += check

	// Figure 7: object recycling.
	if rg := a.rings[ci]; rg != nil {
		slot := int(uint64(id-1) % uint64(rg.plan.N))
		if rg.free[slot] && size <= rg.plan.SlotSize {
			rg.free[slot] = false
			addr := RegionBase + mem.Addr(rg.plan.Base+uint64(slot)*rg.plan.SlotSize)
			a.ringOf[addr] = refRingRef{counter: ci, slot: slot}
			a.cap.MallocsAvoided++
			a.cap.RecycledCaptured++
			return addr, check + 4
		}
		a.cap.FallbackMallocs++
		return a.fallback.Malloc(size), a.cost.MallocInstr + check
	}

	// Figure 4: static preallocated placement. Under the hybrid context
	// (§2.2.2) the profiled call-stack signature must match as well.
	if a.patterns[ci].Matches(id) {
		if sigs := a.plan.Counters[ci].Sigs; sigs != nil {
			a.cap.CheckInstr += hybridSigInstr
			if want, ok := sigs[id]; ok && want != stack {
				a.cap.HybridRejects++
				a.cap.FallbackMallocs++
				return a.fallback.Malloc(size), a.cost.MallocInstr + check + hybridSigInstr
			}
		}
		if slot, ok := a.plan.Counters[ci].SlotOf[id]; ok && size <= slot.Size && !a.slotLive[slot.Offset] {
			a.slotLive[slot.Offset] = true
			addr := RegionBase + mem.Addr(slot.Offset)
			a.byAddr[addr] = slot
			a.cap.MallocsAvoided++
			a.cap.StaticCaptured++
			return addr, check + 4
		}
	}
	a.cap.FallbackMallocs++
	return a.fallback.Malloc(size), a.cost.MallocInstr + check
}

// Free implements machine.Allocator (paper Figure 5).
func (a *refAllocator) Free(addr mem.Addr) uint64 {
	if a.plan.Region().Contains(addr) {
		if ref, ok := a.ringOf[addr]; ok {
			a.rings[ref.counter].free[ref.slot] = true
			delete(a.ringOf, addr)
			a.cap.FreesAvoided++
			return regionCheckInstr + 2
		}
		if slot, ok := a.byAddr[addr]; ok {
			a.slotLive[slot.Offset] = false
			delete(a.byAddr, addr)
			a.cap.FreesAvoided++
			return regionCheckInstr + 2
		}
		// Address inside the region that we did not hand out: treat as a
		// no-op mark, keeping the transformation semantics-preserving.
		a.cap.FreesAvoided++
		return regionCheckInstr + 2
	}
	a.fallback.Free(addr)
	return a.cost.FreeInstr + regionCheckInstr
}

// Realloc implements machine.Allocator (paper Figure 6).
func (a *refAllocator) Realloc(addr mem.Addr, size uint64) (mem.Addr, uint64) {
	if a.plan.Region().Contains(addr) {
		var cur uint64
		var release func()
		if ref, ok := a.ringOf[addr]; ok {
			cur = a.rings[ref.counter].plan.SlotSize
			release = func() {
				a.rings[ref.counter].free[ref.slot] = true
				delete(a.ringOf, addr)
			}
		} else if slot, ok := a.byAddr[addr]; ok {
			cur = slot.Size
			release = func() {
				a.slotLive[slot.Offset] = false
				delete(a.byAddr, addr)
			}
		}
		if size <= cur {
			// Common case per the paper: the new size fits the
			// preallocated slot.
			a.cap.ReallocsInPlace++
			return addr, regionCheckInstr + 2
		}
		// Move the object out of the region: malloc, copy, mark free.
		na := a.fallback.Malloc(size)
		if release != nil {
			release()
		}
		a.cap.ReallocsMoved++
		copyInstr := cur / 8 // one instruction per copied word
		return na, a.cost.MallocInstr + regionCheckInstr + copyInstr
	}
	na, _ := a.fallback.Realloc(addr, size)
	return na, a.cost.ReallocInstr + regionCheckInstr
}

// PeakBytes returns the modeled peak memory: the whole preallocated
// region (reserved up front) plus the fallback heap's peak.
func (a *refAllocator) PeakBytes() uint64 {
	return a.plan.RegionSize + a.fallback.Stats().PeakBytes
}

// Publish reports the allocator's full runtime state into reg: the
// capture statistics, region size/occupancy gauges, and the fallback
// heap's footprint and fragmentation. Nil-safe on a nil registry.
func (a *refAllocator) Publish(reg *obs.Registry, kv ...string) {
	if reg == nil {
		return
	}
	a.cap.Publish(reg, kv...)

	var staticLive uint64
	for _, slot := range a.byAddr {
		staticLive += slot.Size
	}
	var ringLive uint64
	for _, rg := range a.rings {
		if rg == nil {
			continue
		}
		for _, free := range rg.free {
			if !free {
				ringLive += rg.plan.SlotSize
			}
		}
	}
	reg.Gauge("prefix_region_bytes", kv...).Set(float64(a.plan.RegionSize))
	reg.Gauge("prefix_region_live_bytes", kv...).Set(float64(staticLive + ringLive))
	if a.plan.RegionSize > 0 {
		reg.Gauge("prefix_region_occupancy", kv...).Set(float64(staticLive+ringLive) / float64(a.plan.RegionSize))
	}
	reg.Gauge("prefix_peak_bytes", kv...).Set(float64(a.PeakBytes()))
	a.fallback.Stats().Publish(reg, kv...)
}
