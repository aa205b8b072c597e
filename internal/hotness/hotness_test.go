package hotness

import (
	"testing"

	"prefix/internal/mem"
	"prefix/internal/trace"
)

// buildTrace allocates per-site objects and gives each object the
// requested number of accesses.
func buildTrace(t *testing.T, perSite map[mem.SiteID][]uint64) *trace.Analysis {
	t.Helper()
	tr := &trace.Trace{}
	addr := mem.Addr(0x1000)
	var sites []mem.SiteID
	for s := range perSite {
		sites = append(sites, s)
	}
	// Deterministic site order.
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if sites[j] < sites[i] {
				sites[i], sites[j] = sites[j], sites[i]
			}
		}
	}
	type obj struct {
		addr mem.Addr
		n    uint64
	}
	var objs []obj
	for _, s := range sites {
		for _, accesses := range perSite[s] {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindAlloc, Site: s, Addr: addr, Size: 64})
			objs = append(objs, obj{addr, accesses})
			addr += 0x100
		}
	}
	for _, o := range objs {
		for i := uint64(0); i < o.n; i++ {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.KindAccess, Addr: o.addr, Size: 8})
		}
	}
	return trace.Analyze(tr)
}

func TestSelectOrdering(t *testing.T) {
	a := buildTrace(t, map[mem.SiteID][]uint64{1: {100, 10, 50}})
	s := Select(a, Config{Coverage: 1, MinAccesses: 1})
	if len(s.Objects) != 3 {
		t.Fatalf("hot = %d", len(s.Objects))
	}
	if s.Objects[0].Accesses != 100 || s.Objects[1].Accesses != 50 || s.Objects[2].Accesses != 10 {
		t.Error("hot set not sorted by accesses")
	}
}

func TestSelectCoverageCutoff(t *testing.T) {
	a := buildTrace(t, map[mem.SiteID][]uint64{1: {90, 9, 1}})
	s := Select(a, Config{Coverage: 0.9, MinAccesses: 1})
	if len(s.Objects) != 1 {
		t.Fatalf("90%% coverage should take 1 object, got %d", len(s.Objects))
	}
	if s.CoveragePct() != 90 {
		t.Errorf("coverage = %v", s.CoveragePct())
	}
}

func TestSelectMinAccesses(t *testing.T) {
	a := buildTrace(t, map[mem.SiteID][]uint64{1: {100, 3, 3}})
	s := Select(a, Config{Coverage: 1, MinAccesses: 4})
	if len(s.Objects) != 1 {
		t.Errorf("min-access filter failed: %d hot", len(s.Objects))
	}
}

func TestSelectMaxObjects(t *testing.T) {
	a := buildTrace(t, map[mem.SiteID][]uint64{1: {10, 10, 10, 10, 10}})
	s := Select(a, Config{Coverage: 1, MaxObjects: 2, MinAccesses: 1})
	if len(s.Objects) != 2 {
		t.Errorf("cap failed: %d", len(s.Objects))
	}
}

func TestSelectPerSiteInstancesSorted(t *testing.T) {
	a := buildTrace(t, map[mem.SiteID][]uint64{1: {10, 100, 50}, 2: {70}})
	s := Select(a, Config{Coverage: 1, MinAccesses: 1})
	insts := s.PerSite[1]
	if len(insts) != 3 {
		t.Fatalf("site1 instances = %v", insts)
	}
	for i := 1; i < len(insts); i++ {
		if insts[i] <= insts[i-1] {
			t.Fatalf("instances not sorted: %v", insts)
		}
	}
	if got := s.Sites(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("sites = %v", got)
	}
}

func TestSelectBadCoverageDefaults(t *testing.T) {
	a := buildTrace(t, map[mem.SiteID][]uint64{1: {10}})
	s := Select(a, Config{Coverage: 0, MinAccesses: 1})
	if len(s.Objects) != 1 {
		t.Error("invalid coverage should fall back to a sane default")
	}
}

func TestPromoteSites(t *testing.T) {
	// 10 objects, 9 selected hot by coverage; promotion should add the
	// tenth because 90% of the site is hot.
	counts := make([]uint64, 10)
	for i := range counts {
		counts[i] = 100
	}
	counts[9] = 1 // barely accessed: excluded by coverage
	a := buildTrace(t, map[mem.SiteID][]uint64{1: counts})
	s := Select(a, Config{Coverage: 0.95, MinAccesses: 1})
	if len(s.Objects) != 9 {
		t.Fatalf("precondition: hot = %d, want 9", len(s.Objects))
	}
	s.PromoteSites(a, 0.8, 1)
	if len(s.Objects) != 10 {
		t.Errorf("promotion failed: hot = %d", len(s.Objects))
	}
	if len(s.PerSite[1]) != 10 {
		t.Errorf("per-site instances = %d", len(s.PerSite[1]))
	}
}

func TestPromoteSitesBelowThreshold(t *testing.T) {
	a := buildTrace(t, map[mem.SiteID][]uint64{1: {100, 100, 1, 1, 1, 1, 1, 1, 1, 1}})
	s := Select(a, Config{Coverage: 0.9, MinAccesses: 2})
	before := len(s.Objects)
	s.PromoteSites(a, 0.8, 1)
	if len(s.Objects) != before {
		t.Error("site with 20% hot fraction must not be promoted")
	}
}

func TestPromoteSitesMinAllocs(t *testing.T) {
	a := buildTrace(t, map[mem.SiteID][]uint64{1: {100, 1}})
	s := Select(a, Config{Coverage: 0.9, MinAccesses: 2})
	s.PromoteSites(a, 0.5, 8)
	if len(s.Objects) != 1 {
		t.Error("small sites must not be promoted")
	}
}

func TestLiveness(t *testing.T) {
	// Site 1 churns: never more than 2 live of 4 allocated.
	a := trace.Analyze(&trace.Trace{Events: []trace.Event{
		{Kind: trace.KindAlloc, Site: 1, Addr: 0x1000, Size: 16},
		{Kind: trace.KindAlloc, Site: 1, Addr: 0x2000, Size: 16},
		{Kind: trace.KindFree, Addr: 0x1000},
		{Kind: trace.KindAlloc, Site: 1, Addr: 0x3000, Size: 16},
		{Kind: trace.KindFree, Addr: 0x2000},
		{Kind: trace.KindAlloc, Site: 1, Addr: 0x4000, Size: 16},
	}})
	l := AnalyzeLiveness(a)
	if l.SiteMaxLive[1] != 2 || l.SiteAllocs[1] != 4 {
		t.Errorf("liveness: %+v", l)
	}
	if !l.RecyclingCandidate(1, 2) {
		t.Error("4 allocs / 2 live at ratio 2 should qualify")
	}
	if l.RecyclingCandidate(1, 3) {
		t.Error("ratio 3 should not qualify")
	}
	if l.RecyclingCandidate(99, 1) {
		t.Error("unknown site should not qualify")
	}
}
