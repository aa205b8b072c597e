package hotness

import (
	"reflect"
	"sort"
	"testing"

	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/simalloc"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// refSelect is Select as it was before it sorted with slices.SortFunc
// and presized its sets, kept verbatim (renamed) as the reference.
func refSelect(a *trace.Analysis, cfg Config) *Set {
	if cfg.Coverage <= 0 || cfg.Coverage > 1 {
		cfg.Coverage = 0.9
	}
	objs := make([]*trace.Object, 0, len(a.Objects))
	for _, o := range a.Objects {
		if o.Accesses >= cfg.MinAccesses && o.Accesses > 0 {
			objs = append(objs, o)
		}
	}
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].Accesses != objs[j].Accesses {
			return objs[i].Accesses > objs[j].Accesses
		}
		return objs[i].ID < objs[j].ID // deterministic tie-break
	})

	target := uint64(cfg.Coverage * float64(a.HeapAccesses))
	s := &Set{
		IDs:          make(map[mem.ObjectID]bool),
		PerSite:      make(map[mem.SiteID][]mem.Instance),
		HeapAccesses: a.HeapAccesses,
	}
	for _, o := range objs {
		if cfg.MaxObjects > 0 && len(s.Objects) >= cfg.MaxObjects {
			break
		}
		if s.CoveredAccesses >= target && len(s.Objects) > 0 {
			break
		}
		s.Objects = append(s.Objects, o)
		s.IDs[o.ID] = true
		s.PerSite[o.Site] = append(s.PerSite[o.Site], o.Instance)
		s.CoveredAccesses += o.Accesses
	}
	for site := range s.PerSite {
		insts := s.PerSite[site]
		sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	}
	return s
}

// refPromoteSites is PromoteSites before the same sort change, kept
// verbatim (renamed) as the reference.
func (s *Set) refPromoteSites(a *trace.Analysis, threshold float64, minAllocs uint64) {
	for _, site := range s.Sites() {
		insts := s.PerSite[site]
		total := a.SiteAllocs[site]
		if total < minAllocs || float64(len(insts)) < threshold*float64(total) {
			continue
		}
		if uint64(len(insts)) == total {
			continue // already all hot
		}
		for _, id := range a.SiteObjects[site] {
			o := a.Object(id)
			if s.IDs[o.ID] {
				continue
			}
			s.Objects = append(s.Objects, o)
			s.IDs[o.ID] = true
			s.PerSite[site] = append(s.PerSite[site], o.Instance)
			s.CoveredAccesses += o.Accesses
		}
		insts = s.PerSite[site]
		sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	}
}

// heapAlloc serves a profiling run from the simulated heap alone.
type heapAlloc struct{ h *simalloc.Heap }

func (heapAlloc) Name() string { return "heap" }
func (a heapAlloc) Malloc(_ mem.SiteID, _ mem.StackSig, size uint64) (mem.Addr, uint64) {
	return a.h.Malloc(size), 0
}
func (a heapAlloc) Free(addr mem.Addr) uint64 { a.h.Free(addr); return 0 }
func (a heapAlloc) Realloc(addr mem.Addr, size uint64) (mem.Addr, uint64) {
	na, _ := a.h.Realloc(addr, size)
	return na, 0
}

// TestSelectMatchesReference: on the analyzed profile run and bench-scale
// evaluation run of every workload, Select and PromoteSites give exactly
// the sets the reference gives, under the default configuration and
// under ones that cap hard, cover everything, or filter rare objects.
func TestSelectMatchesReference(t *testing.T) {
	configs := []Config{
		DefaultConfig(),
		{Coverage: 1, MinAccesses: 1},
		{Coverage: 0.5, MaxObjects: 64, MinAccesses: 16},
	}
	promotions := []struct {
		threshold float64
		minAllocs uint64
	}{{0.5, 8}, {0.9, 1}}
	for _, name := range workloads.Names() {
		spec, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			input string
			cfg   workloads.Config
		}{{"profile", spec.Profile}, {"bench", spec.Bench}} {
			an := trace.NewAnalyzer()
			m := machine.New(heapAlloc{simalloc.New(simalloc.HeapBase)}, cachesim.ScaledConfig(), machine.WithRecorder(an))
			spec.Program.Run(m, run.cfg)
			m.Finish()
			a := an.Finish()
			for ci, cfg := range configs {
				got, want := Select(a, cfg), refSelect(a, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s config %d: Select differs from the reference (%d vs %d hot objects)", name, run.input, ci, len(got.Objects), len(want.Objects))
				}
				for _, p := range promotions {
					got.PromoteSites(a, p.threshold, p.minAllocs)
					want.refPromoteSites(a, p.threshold, p.minAllocs)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s config %d: PromoteSites(%v, %d) differs from the reference", name, run.input, ci, p.threshold, p.minAllocs)
					}
				}
			}
		}
	}
}
