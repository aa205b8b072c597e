package baselines

import (
	"testing"

	"prefix/internal/hds"
	"prefix/internal/hotness"
	"prefix/internal/mem"
	"prefix/internal/trace"
)

// planTrace: site 1 allocates under stack A, site 2 under stack B, site 3
// under stack C; objects from A and B co-occur in a stream.
func planTrace() (*trace.Analysis, *hotness.Set) {
	tr := &trace.Trace{Events: []trace.Event{
		{Kind: trace.KindAlloc, Site: 1, Stack: 0xA, Addr: 0x1000, Size: 32},
		{Kind: trace.KindAlloc, Site: 2, Stack: 0xB, Addr: 0x2000, Size: 32},
		{Kind: trace.KindAlloc, Site: 3, Stack: 0xC, Addr: 0x3000, Size: 32},
	}}
	for i := 0; i < 10; i++ {
		for _, addr := range []mem.Addr{0x1000, 0x2000, 0x3000} {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindAccess, Addr: addr, Size: 8})
		}
	}
	a := trace.Analyze(tr)
	hot := hotness.Select(a, hotness.Config{Coverage: 1, MinAccesses: 1})
	return a, hot
}

func TestPlanHALOAffinityGrouping(t *testing.T) {
	a, hot := planTrace()
	streams := []hds.Stream{{Objects: []mem.ObjectID{1, 2}, Heat: 100}}
	cfg := PlanHALO(a, hot, streams)
	if cfg.Groups[0xA] != cfg.Groups[0xB] {
		t.Error("co-occurring contexts must share a group")
	}
	if cfg.Groups[0xA] == cfg.Groups[0xC] {
		t.Error("unrelated context must get its own group")
	}
	if cfg.NumGroups != 2 {
		t.Errorf("groups = %d, want 2", cfg.NumGroups)
	}
}

func TestPlanHALONoStreams(t *testing.T) {
	a, hot := planTrace()
	cfg := PlanHALO(a, hot, nil)
	if cfg.NumGroups != 3 {
		t.Errorf("without streams every hot context is its own group: %d", cfg.NumGroups)
	}
}

func TestHotSetOf(t *testing.T) {
	_, hot := planTrace()
	hs := HotSetOf(hot)
	if !hs.Has(1, 1) || !hs.Has(2, 1) || !hs.Has(3, 1) {
		t.Error("hot set conversion lost instances")
	}
	if hs.Has(1, 2) {
		t.Error("phantom instance")
	}
}

func TestHDSSites(t *testing.T) {
	a, _ := planTrace()
	streams := []hds.Stream{
		{Objects: []mem.ObjectID{1, 2}, Heat: 100},
		{Objects: []mem.ObjectID{3}, Heat: 1}, // below the 10% heat floor
	}
	sites := HDSSites(a, streams)
	if len(sites) != 2 || sites[0] != 1 || sites[1] != 2 {
		t.Errorf("sites = %v, want [1 2]", sites)
	}
}

func TestHDSSitesHeatFloor(t *testing.T) {
	a, _ := planTrace()
	streams := []hds.Stream{
		{Objects: []mem.ObjectID{1}, Heat: 1000},
		{Objects: []mem.ObjectID{3}, Heat: 200}, // 20% of top: kept
	}
	sites := HDSSites(a, streams)
	if len(sites) != 2 {
		t.Errorf("sites = %v", sites)
	}
}
