package prefix

import (
	"testing"

	"prefix/internal/cachesim"
	"prefix/internal/context"
	"prefix/internal/mem"
	"prefix/internal/obs"
)

// staticPlan builds a hand-written plan: site 1 uses a Fixed {1,3}
// pattern with two slots; site 2 is uninstrumented.
func staticPlan() *Plan {
	return &Plan{
		Benchmark:  "test",
		Variant:    VariantHot,
		RegionSize: 256,
		Counters: []PlanCounter{{
			Sites: []mem.SiteID{1},
			Kind:  context.KindFixed,
			Set:   []mem.Instance{1, 3},
			SlotOf: map[mem.Instance]Slot{
				1: {Offset: 0, Size: 64},
				3: {Offset: 64, Size: 32},
			},
		}},
		SiteCounter:   map[mem.SiteID]int{1: 0},
		PlacedObjects: 2,
	}
}

// ringPlan builds a recycling plan: site 5, All ids, 2 slots of 64 bytes.
func ringPlan() *Plan {
	return &Plan{
		Benchmark:  "test",
		Variant:    VariantHot,
		RegionSize: 128,
		Counters: []PlanCounter{{
			Sites:   []mem.SiteID{5},
			Kind:    context.KindAll,
			Recycle: &RecyclePlan{N: 2, SlotSize: 64, Base: 0},
		}},
		SiteCounter: map[mem.SiteID]int{5: 0},
	}
}

func cost() cachesim.CostModel { return cachesim.DefaultCost() }

func TestStaticCapture(t *testing.T) {
	a := NewAllocator(staticPlan(), cost())
	// Instance 1: matches, fits.
	a1, _ := a.Malloc(1, 0, 48)
	if a1 != RegionBase {
		t.Errorf("instance 1 should land at region base, got %v", a1)
	}
	// Instance 2: no match -> heap.
	a2, _ := a.Malloc(1, 0, 48)
	if a.Region().Contains(a2) {
		t.Error("instance 2 must not be captured")
	}
	// Instance 3: matches second slot.
	a3, _ := a.Malloc(1, 0, 24)
	if a3 != RegionBase+64 {
		t.Errorf("instance 3 at %v, want %v", a3, RegionBase+64)
	}
	// Instance 4+: fallback.
	a4, _ := a.Malloc(1, 0, 8)
	if a.Region().Contains(a4) {
		t.Error("instance 4 must not be captured")
	}
	c := a.Capture()
	if c.MallocsAvoided != 2 || c.StaticCaptured != 2 || c.FallbackMallocs != 2 {
		t.Errorf("capture = %+v", c)
	}
}

func TestSizeGuard(t *testing.T) {
	// Figure 4: "ObjectSize <= PreallocSize[ObjectID]" — an oversized
	// instance falls back to malloc.
	a := NewAllocator(staticPlan(), cost())
	addr, _ := a.Malloc(1, 0, 100) // slot is 64
	if a.Region().Contains(addr) {
		t.Error("oversized object must not be captured")
	}
}

func TestUninstrumentedSite(t *testing.T) {
	a := NewAllocator(staticPlan(), cost())
	addr, instr := a.Malloc(2, 0, 16)
	if a.Region().Contains(addr) {
		t.Error("uninstrumented site captured")
	}
	if instr != cost().MallocInstr {
		t.Errorf("uninstrumented malloc cost = %d", instr)
	}
}

func TestFreeMarksSlot(t *testing.T) {
	// Figure 5: freeing a preallocated object marks it, no heap call.
	a := NewAllocator(staticPlan(), cost())
	addr, _ := a.Malloc(1, 0, 48)
	instr := a.Free(addr)
	if instr >= cost().FreeInstr {
		t.Errorf("region free should be cheap, cost %d", instr)
	}
	if a.Capture().FreesAvoided != 1 {
		t.Error("free not counted as avoided")
	}
	// Heap free pays full cost plus the range check.
	heapAddr, _ := a.Malloc(2, 0, 16)
	if got := a.Free(heapAddr); got < cost().FreeInstr {
		t.Errorf("heap free cost = %d", got)
	}
}

func TestReallocInPlace(t *testing.T) {
	// Figure 6 common case: the new size fits the preallocated slot.
	a := NewAllocator(staticPlan(), cost())
	addr, _ := a.Malloc(1, 0, 48)
	na, _ := a.Realloc(addr, 60)
	if na != addr {
		t.Error("fitting realloc should stay in place")
	}
	if a.Capture().ReallocsInPlace != 1 {
		t.Error("in-place realloc not counted")
	}
}

func TestReallocMovesOut(t *testing.T) {
	// Figure 6: a growing object is copied out of the region and the
	// slot is marked free.
	a := NewAllocator(staticPlan(), cost())
	addr, _ := a.Malloc(1, 0, 48)
	if got := liveBytes(a); got != 64 {
		t.Fatalf("region live bytes = %v with the 64-byte slot taken", got)
	}
	na, _ := a.Realloc(addr, 500)
	if a.Region().Contains(na) {
		t.Error("grown object must leave the region")
	}
	if a.Capture().ReallocsMoved != 1 {
		t.Error("move not counted")
	}
	// A Fixed plan never hands the slot out again, so only the published
	// occupancy shows whether the move released it.
	if got := liveBytes(a); got != 0 {
		t.Errorf("region live bytes = %v after realloc-out, want 0 (slot still marked live)", got)
	}
}

// liveBytes returns the region live bytes a publishes.
func liveBytes(a *Allocator) float64 {
	reg := obs.NewRegistry()
	a.Publish(reg)
	return reg.Gauge("prefix_region_live_bytes").Value()
}

func TestHeapRealloc(t *testing.T) {
	a := NewAllocator(staticPlan(), cost())
	addr, _ := a.Malloc(2, 0, 32)
	na, _ := a.Realloc(addr, 64)
	if a.Region().Contains(na) {
		t.Error("heap realloc entered the region")
	}
}

func TestRecyclingRing(t *testing.T) {
	// Figure 7: Counter mod N slot reuse.
	a := NewAllocator(ringPlan(), cost())
	s0, _ := a.Malloc(5, 0, 64) // id 1 -> slot 0
	s1, _ := a.Malloc(5, 0, 64) // id 2 -> slot 1
	if s0 != RegionBase || s1 != RegionBase+64 {
		t.Fatalf("slots = %v, %v", s0, s1)
	}
	// Ring full: id 3 maps to slot 0, which is occupied -> fallback.
	f, _ := a.Malloc(5, 0, 64)
	if a.Region().Contains(f) {
		t.Error("occupied slot must fall back to malloc")
	}
	// Free slot 0; id 4 maps to slot 1 (occupied) -> fallback; id 5 maps
	// to slot 0 (free) -> reuse.
	a.Free(s0)
	f2, _ := a.Malloc(5, 0, 64)
	if a.Region().Contains(f2) {
		t.Error("id 4 maps to occupied slot 1")
	}
	r, _ := a.Malloc(5, 0, 64)
	if r != s0 {
		t.Errorf("id 5 should recycle slot 0: got %v", r)
	}
	c := a.Capture()
	if c.RecycledCaptured != 3 {
		t.Errorf("recycled = %d, want 3", c.RecycledCaptured)
	}
}

func TestRecyclingSizeGuard(t *testing.T) {
	a := NewAllocator(ringPlan(), cost())
	addr, _ := a.Malloc(5, 0, 100) // larger than the 64-byte slot
	if a.Region().Contains(addr) {
		t.Error("oversized object entered the ring")
	}
}

func TestRecyclingRealloc(t *testing.T) {
	a := NewAllocator(ringPlan(), cost())
	addr, _ := a.Malloc(5, 0, 32)
	na, _ := a.Realloc(addr, 64)
	if na != addr {
		t.Error("fitting ring realloc should stay in place")
	}
	na2, _ := a.Realloc(addr, 256)
	if a.Region().Contains(na2) {
		t.Error("grown ring object must leave the region")
	}
	// Slot must be free for the next cycle.
	a.Malloc(5, 0, 64) // id 2 -> slot 1
	a.Malloc(5, 0, 64) // id 3 -> slot 0 (freed by realloc)
	if a.Capture().RecycledCaptured != 3 {
		t.Errorf("recycled = %d, want 3", a.Capture().RecycledCaptured)
	}
}

func TestCallsAvoided(t *testing.T) {
	a := NewAllocator(ringPlan(), cost())
	for i := 0; i < 10; i++ {
		addr, _ := a.Malloc(5, 0, 64)
		a.Free(addr)
	}
	if got := a.Capture().CallsAvoided(); got != 10 {
		t.Errorf("calls avoided = %d, want 10", got)
	}
}

func TestPeakBytesIncludesRegion(t *testing.T) {
	p := staticPlan()
	a := NewAllocator(p, cost())
	if a.PeakBytes() < p.RegionSize {
		t.Error("peak must include the preallocated region")
	}
}

func TestNameReflectsVariant(t *testing.T) {
	if NewAllocator(staticPlan(), cost()).Name() != "prefix:hot" {
		t.Error("allocator name should reflect variant")
	}
}
