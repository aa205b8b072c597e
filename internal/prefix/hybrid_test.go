package prefix

import (
	"bytes"
	"testing"

	"prefix/internal/mem"
	"prefix/internal/trace"
)

// hybridProfile builds a profile for the §2.2.2 scenario: site 1
// allocates a cold setup object under stack 0xC0LD, then the hot object
// under stack 0x407 — so the hot id is {2} and its profiled signature is
// 0x407.
func hybridProfile() *trace.Analysis {
	tr := &trace.Trace{Events: []trace.Event{
		{Kind: trace.KindAlloc, Site: 1, Stack: 0xC01D, Addr: 0x1000, Size: 64}, // instance 1: cold
		{Kind: trace.KindAlloc, Site: 1, Stack: 0x407, Addr: 0x2000, Size: 64},  // instance 2: hot
	}}
	for i := 0; i < 50; i++ {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindAccess, Addr: 0x2000, Size: 8})
	}
	tr.Events = append(tr.Events, trace.Event{Kind: trace.KindAccess, Addr: 0x1000, Size: 8})
	return trace.Analyze(tr)
}

func hybridPlan(t *testing.T, hybrid bool) *Plan {
	t.Helper()
	cfg := DefaultPlanConfig("hybrid", VariantHot)
	cfg.HybridContext = hybrid
	plan, _, err := BuildPlan(hybridProfile(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestHybridPlanRecordsSigs(t *testing.T) {
	plan := hybridPlan(t, true)
	found := false
	for i := range plan.Counters {
		if plan.Counters[i].Sigs != nil {
			found = true
			for _, sig := range plan.Counters[i].Sigs {
				if sig != 0x407 {
					t.Errorf("recorded sig = %#x, want 0x407", sig)
				}
			}
		}
	}
	if !found {
		t.Fatal("hybrid plan carries no signatures")
	}
	if hybridPlan(t, false).Counters[0].Sigs != nil {
		t.Error("non-hybrid plan must not carry signatures")
	}
}

// TestHybridRejectsShiftedAllocation simulates a non-deterministic run
// where the allocation order shifted: instance 2 is now a *different*
// (cold) allocation under another call stack. The id matches; without
// the hybrid check it would be captured spuriously, with it the
// signature mismatch rejects it.
func TestHybridRejectsShiftedAllocation(t *testing.T) {
	run := func(hybrid bool) (*Allocator, mem.Addr) {
		a := NewAllocator(hybridPlan(t, hybrid), cost())
		a.Malloc(1, 0x407, 64)             // id 1 (the order shifted)
		addr, _ := a.Malloc(1, 0xDEAD, 64) // id 2, wrong context
		return a, addr
	}
	a, addr := run(false)
	if !a.Region().Contains(addr) {
		t.Fatal("precondition: without hybrid the shifted object is captured")
	}
	a, addr = run(true)
	if a.Region().Contains(addr) {
		t.Error("hybrid check failed to reject the shifted allocation")
	}
	if a.Capture().HybridRejects != 1 {
		t.Errorf("hybrid rejects = %d, want 1", a.Capture().HybridRejects)
	}
}

// TestHybridAcceptsMatchingContext: in a deterministic run the hybrid
// check changes nothing.
func TestHybridAcceptsMatchingContext(t *testing.T) {
	a := NewAllocator(hybridPlan(t, true), cost())
	a.Malloc(1, 0xC01D, 64)
	addr, _ := a.Malloc(1, 0x407, 64)
	if !a.Region().Contains(addr) {
		t.Error("matching id+context should be captured")
	}
	if a.Capture().HybridRejects != 0 {
		t.Error("no rejects expected")
	}
}

func TestHybridPlanJSONRoundtrip(t *testing.T) {
	plan := hybridPlan(t, true)
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Counters {
		if len(got.Counters[i].Sigs) != len(plan.Counters[i].Sigs) {
			t.Error("signatures lost in JSON roundtrip")
		}
	}
}
