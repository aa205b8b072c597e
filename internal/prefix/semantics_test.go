package prefix

import (
	"testing"
	"testing/quick"

	"prefix/internal/mem"
	"prefix/internal/trace"
	"prefix/internal/xrand"
)

// TestAllocatorSemanticsProperty drives random allocation programs
// through a plan built from their own profile and checks the §2.3
// correctness claim: the transformation only changes *where* objects
// live. Concretely, at all times no two live allocations overlap
// (region-placed, ring-placed, or fallback), every Malloc yields a
// usable address, and frees make slots reusable.
func TestAllocatorSemanticsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)

		// Generate a random program: a list of (site, size, lifetime)
		// allocations with interleaved accesses, replayed identically
		// for profiling and evaluation.
		type op struct {
			site mem.SiteID
			size uint64
			live int // ops until freed
		}
		nOps := 150 + rng.Intn(150)
		ops := make([]op, nOps)
		for i := range ops {
			ops[i] = op{
				site: mem.SiteID(rng.Intn(4) + 1),
				size: rng.Uint64n(200) + 1,
				live: rng.Intn(20) + 1,
			}
		}

		// Profile run on a recorder-backed pseudo-heap.
		tr := &trace.Trace{}
		{
			next := mem.Addr(0x10000)
			type liveObj struct {
				addr  mem.Addr
				until int
			}
			var live []liveObj
			for i, o := range ops {
				a := next
				next += mem.Addr(o.size + 32)
				tr.Events = append(tr.Events,
					trace.Event{Kind: trace.KindAlloc, Site: o.site, Stack: mem.StackSig(o.site), Addr: a, Size: o.size},
					trace.Event{Kind: trace.KindAccess, Addr: a, Size: 8},
					trace.Event{Kind: trace.KindAccess, Addr: a, Size: 8},
					trace.Event{Kind: trace.KindAccess, Addr: a, Size: 8, Write: true},
					trace.Event{Kind: trace.KindAccess, Addr: a, Size: 8})
				live = append(live, liveObj{a, i + o.live})
				kept := live[:0]
				for _, l := range live {
					if l.until <= i {
						tr.Events = append(tr.Events, trace.Event{Kind: trace.KindFree, Addr: l.addr})
					} else {
						kept = append(kept, l)
					}
				}
				live = kept
			}
			for _, l := range live {
				tr.Events = append(tr.Events, trace.Event{Kind: trace.KindFree, Addr: l.addr})
			}
		}
		cfg := DefaultPlanConfig("prop", VariantHDSHot)
		cfg.Hot.MinAccesses = 1
		plan, _, err := BuildPlan(trace.Analyze(tr), cfg)
		if err != nil {
			return true // profiles without hot objects are fine to skip
		}
		if plan.Validate() != nil {
			t.Log("invalid plan")
			return false
		}

		// Evaluation run: same program on the PreFix allocator, with an
		// overlap oracle over requested sizes.
		alloc := NewAllocator(plan, cost())
		type liveRange struct {
			r     mem.Range
			until int
		}
		var live []liveRange
		for i, o := range ops {
			addr, _ := alloc.Malloc(o.site, mem.StackSig(o.site), o.size)
			if addr == mem.NilAddr {
				t.Log("nil address")
				return false
			}
			nr := mem.Range{Start: addr, Size: o.size}
			for _, l := range live {
				if l.r.Overlaps(nr) {
					t.Logf("overlap: live %v with new %v (seed %d op %d)", l.r, nr, seed, i)
					return false
				}
			}
			live = append(live, liveRange{nr, i + o.live})
			kept := live[:0]
			for _, l := range live {
				if l.until <= i {
					alloc.Free(l.r.Start)
				} else {
					kept = append(kept, l)
				}
			}
			live = kept
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAllocatorReallocSemanticsProperty extends the oracle with random
// reallocs: the (possibly moved) object must never overlap other live
// objects, matching Figure 6's semantics.
func TestAllocatorReallocSemanticsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		plan := ringPlan() // ring of 2x64B slots on site 5
		alloc := NewAllocator(plan, cost())
		type liveRange struct{ r mem.Range }
		var live []liveRange
		check := func(nr mem.Range, skip int) bool {
			for j, l := range live {
				if j != skip && l.r.Overlaps(nr) {
					return false
				}
			}
			return true
		}
		for i := 0; i < 300; i++ {
			switch {
			case len(live) == 0 || rng.Float64() < 0.5:
				size := rng.Uint64n(120) + 1
				addr, _ := alloc.Malloc(5, 0, size)
				nr := mem.Range{Start: addr, Size: size}
				if !check(nr, -1) {
					t.Logf("malloc overlap at op %d (seed %d)", i, seed)
					return false
				}
				live = append(live, liveRange{nr})
			case rng.Float64() < 0.5:
				j := rng.Intn(len(live))
				alloc.Free(live[j].r.Start)
				live = append(live[:j], live[j+1:]...)
			default:
				j := rng.Intn(len(live))
				size := rng.Uint64n(200) + 1
				addr, _ := alloc.Realloc(live[j].r.Start, size)
				nr := mem.Range{Start: addr, Size: size}
				if !check(nr, j) {
					t.Logf("realloc overlap at op %d (seed %d)", i, seed)
					return false
				}
				live[j] = liveRange{nr}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
