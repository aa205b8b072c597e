package prefix

import (
	"bytes"
	"sync"
	"testing"

	"prefix/internal/context"
	"prefix/internal/hds"
	"prefix/internal/mem"
	"prefix/internal/trace"
)

// synthTrace builds a profile with two tandem hot sites forming a stream
// (objects visited together repeatedly), one churn site suitable for
// recycling, and cold noise.
func synthTrace() *trace.Analysis {
	tr := &trace.Trace{}
	addr := mem.Addr(0x10000)
	alloc := func(site mem.SiteID, size uint64) mem.Addr {
		a := addr
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindAlloc, Site: site, Stack: mem.StackSig(site), Addr: a, Size: size})
		addr += mem.Addr(size + 16)
		return a
	}
	access := func(a mem.Addr) {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindAccess, Addr: a, Size: 8})
	}
	// Tandem pair: 8 rounds of (site1, site2), all hot.
	var pairs []mem.Addr
	for i := 0; i < 8; i++ {
		pairs = append(pairs, alloc(1, 32), alloc(2, 48))
		alloc(9, 24) // cold noise between pairs
	}
	// Churn site 3: 12 allocations, at most 2 live, all well accessed.
	var ring []mem.Addr
	for i := 0; i < 12; i++ {
		a := alloc(3, 64)
		for k := 0; k < 12; k++ {
			access(a)
		}
		ring = append(ring, a)
		if len(ring) > 2 {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindFree, Addr: ring[0]})
			ring = ring[1:]
		}
	}
	// Repeated stream over the pairs.
	for rep := 0; rep < 30; rep++ {
		for _, p := range pairs {
			access(p)
		}
	}
	return trace.Analyze(tr)
}

func TestBuildPlanEndToEnd(t *testing.T) {
	for _, v := range []Variant{VariantHot, VariantHDS, VariantHDSHot} {
		cfg := DefaultPlanConfig("synth", v)
		plan, sum, err := BuildPlan(synthTrace(), cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if plan.Variant != v || plan.Benchmark != "synth" {
			t.Errorf("plan meta wrong: %+v", plan)
		}
		if sum.HotObjects == 0 {
			t.Error("no hot objects in summary")
		}
	}
}

func TestBuildPlanRecycling(t *testing.T) {
	plan, _, err := BuildPlan(synthTrace(), DefaultPlanConfig("synth", VariantHot))
	if err != nil {
		t.Fatal(err)
	}
	foundRing := false
	for i := range plan.Counters {
		c := &plan.Counters[i]
		if c.Recycle != nil {
			foundRing = true
			if c.Kind != context.KindAll {
				t.Error("only All counters may recycle")
			}
			if c.Recycle.N != 3 {
				t.Errorf("ring N = %d, want 3 (peak live)", c.Recycle.N)
			}
		}
	}
	if !foundRing {
		t.Error("churn site should have been converted to a recycling ring")
	}
}

func TestBuildPlanRecyclingDisabled(t *testing.T) {
	cfg := DefaultPlanConfig("synth", VariantHot)
	cfg.RecycleRatio = 0
	plan, _, err := BuildPlan(synthTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Counters {
		if plan.Counters[i].Recycle != nil {
			t.Error("recycling must be disabled when ratio = 0")
		}
	}
}

func TestBuildPlanTandemSharing(t *testing.T) {
	plan, _, err := BuildPlan(synthTrace(), DefaultPlanConfig("synth", VariantHot))
	if err != nil {
		t.Fatal(err)
	}
	// Sites 1 and 2 allocate in tandem and must share a counter.
	if plan.SiteCounter[1] != plan.SiteCounter[2] {
		t.Errorf("tandem sites not sharing: %v", plan.SiteCounter)
	}
	// The cold-noise site must not be instrumented.
	if _, ok := plan.SiteCounter[9]; ok {
		t.Error("cold site instrumented")
	}
}

func TestBuildPlanVariantsDifferInPlacement(t *testing.T) {
	hot, _, err := BuildPlan(synthTrace(), DefaultPlanConfig("synth", VariantHot))
	if err != nil {
		t.Fatal(err)
	}
	hdsOnly, _, err := BuildPlan(synthTrace(), DefaultPlanConfig("synth", VariantHDS))
	if err != nil {
		t.Fatal(err)
	}
	if hot.PlacedObjects < hdsOnly.PlacedObjects {
		t.Errorf("Hot placement (%d) should cover at least the HDS placement (%d)",
			hot.PlacedObjects, hdsOnly.PlacedObjects)
	}
}

func TestBuildPlanNoHotObjects(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{{Kind: trace.KindAlloc, Site: 1, Addr: 0x1000, Size: 16}}}
	if _, _, err := BuildPlan(trace.Analyze(tr), DefaultPlanConfig("x", VariantHot)); err == nil {
		t.Error("profile without hot objects should error")
	}
}

func TestPlanJSONRoundtrip(t *testing.T) {
	plan, _, err := BuildPlan(synthTrace(), DefaultPlanConfig("synth", VariantHDSHot))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.RegionSize != plan.RegionSize || got.NumCounters() != plan.NumCounters() ||
		got.NumSites() != plan.NumSites() || got.Variant != plan.Variant {
		t.Error("roundtrip lost plan structure")
	}
}

func TestPlanValidateCatchesOverlap(t *testing.T) {
	p := &Plan{
		RegionSize: 64,
		Counters: []PlanCounter{{
			Sites: []mem.SiteID{1},
			Kind:  context.KindFixed,
			Set:   []mem.Instance{1, 2},
			SlotOf: map[mem.Instance]Slot{
				1: {Offset: 0, Size: 48},
				2: {Offset: 32, Size: 16}, // overlaps slot 1
			},
		}},
		SiteCounter: map[mem.SiteID]int{1: 0},
	}
	if p.Validate() == nil {
		t.Error("overlapping slots accepted")
	}
}

func TestPlanValidateCatchesOutOfRegion(t *testing.T) {
	p := &Plan{
		RegionSize: 32,
		Counters: []PlanCounter{{
			Sites:  []mem.SiteID{1},
			Kind:   context.KindFixed,
			Set:    []mem.Instance{1},
			SlotOf: map[mem.Instance]Slot{1: {Offset: 16, Size: 32}},
		}},
		SiteCounter: map[mem.SiteID]int{1: 0},
	}
	if p.Validate() == nil {
		t.Error("slot past region end accepted")
	}
}

func TestPlanValidateCatchesBadWiring(t *testing.T) {
	p := &Plan{SiteCounter: map[mem.SiteID]int{1: 3}}
	if p.Validate() == nil {
		t.Error("site wired to missing counter accepted")
	}
}

func TestVariantString(t *testing.T) {
	if VariantHot.String() != "prefix:hot" || VariantHDS.String() != "prefix:hds" || VariantHDSHot.String() != "prefix:hds+hot" {
		t.Error("variant strings wrong")
	}
}

func TestKindsString(t *testing.T) {
	plan, _, err := BuildPlan(synthTrace(), DefaultPlanConfig("synth", VariantHot))
	if err != nil {
		t.Fatal(err)
	}
	if plan.KindsString() == "none" {
		t.Error("plan should report pattern kinds")
	}
}

// TestPlaceSharesPrepared: one Prepared serves every variant, placed
// repeatedly and concurrently, and each placement serializes exactly like
// a fresh BuildPlan of that variant — Place must never write into the
// shared preparation (run under -race to catch it doing so).
func TestPlaceSharesPrepared(t *testing.T) {
	a := synthTrace()
	cfg := DefaultPlanConfig("synth", VariantHDSHot)
	hot := SelectHot(a, cfg)
	refs := hds.CollapseRefs(a.Refs, hot.IDs)
	prep, err := Prepare(a, hot, WeighStreams(hds.MineLCS(refs, cfg.HDS), hot), len(refs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Variant{VariantHot, VariantHDS, VariantHDSHot}
	placed := make([][2]string, len(variants)*4)
	var wg sync.WaitGroup
	for i := range placed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, sum, err := prep.Place(variants[i%len(variants)], nil, NewLedger())
			if err != nil {
				t.Error(err)
				return
			}
			var pj, lj bytes.Buffer
			plan.WriteJSON(&pj)
			sum.Ledger.WriteJSON(&lj)
			placed[i] = [2]string{pj.String(), lj.String()}
		}()
	}
	wg.Wait()
	for i, got := range placed {
		v := variants[i%len(variants)]
		vcfg := DefaultPlanConfig("synth", v)
		vcfg.Ledger = NewLedger()
		plan, _, err := BuildPlan(a, vcfg)
		if err != nil {
			t.Fatal(err)
		}
		var pj, lj bytes.Buffer
		plan.WriteJSON(&pj)
		vcfg.Ledger.WriteJSON(&lj)
		if got[0] != pj.String() || got[1] != lj.String() {
			t.Errorf("placement %d (%v) differs from BuildPlan", i, v)
		}
	}
	if _, _, err := prep.Place(Variant(99), nil, nil); err == nil {
		t.Error("unknown variant placed without error")
	}
}
