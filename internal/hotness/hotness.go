// Package hotness selects the hot dynamic heap objects from a profiling
// trace. The paper's Figure 1 observation is that a small number of
// dynamic objects accounts for the bulk of heap accesses; the selector
// here takes the smallest prefix of objects (by access count) that covers
// a configurable share of all heap accesses, subject to a cap and a
// minimum-access floor, and reports the per-site dynamic instances —
// precisely the inputs PreFix needs for context inference.
//
// It also performs the lifetime analysis behind object recycling (§2.4):
// per-site peaks of simultaneously live objects.
package hotness

import (
	"cmp"
	"slices"

	"prefix/internal/mem"
	"prefix/internal/trace"
)

// Config controls hot object selection.
type Config struct {
	// Coverage is the target share of heap accesses the hot set should
	// cover, in (0, 1].
	Coverage float64
	// MaxObjects caps the hot set ("preallocating memory for a fixed
	// small number of hot objects"). 0 means no cap.
	MaxObjects int
	// MinAccesses drops objects accessed fewer times than this.
	MinAccesses uint64
}

// DefaultConfig covers 96% of heap accesses with at most 4096 objects.
func DefaultConfig() Config {
	return Config{Coverage: 0.96, MaxObjects: 4096, MinAccesses: 4}
}

// Set is the selected hot set.
type Set struct {
	// Objects are the hot objects, most accessed first.
	Objects []*trace.Object
	// IDs is the same selection as a membership set.
	IDs map[mem.ObjectID]bool
	// PerSite lists, for each site with at least one hot object, the hot
	// dynamic instances in increasing order.
	PerSite map[mem.SiteID][]mem.Instance
	// CoveredAccesses is the number of heap accesses to hot objects.
	CoveredAccesses uint64
	// HeapAccesses is the total heap accesses in the trace.
	HeapAccesses uint64
}

// CoveragePct returns the share of heap accesses covered by the hot set,
// in percent (the Figure 1 bar height).
func (s *Set) CoveragePct() float64 {
	if s.HeapAccesses == 0 {
		return 0
	}
	return 100 * float64(s.CoveredAccesses) / float64(s.HeapAccesses)
}

// Sites returns the hot allocation sites in ascending order.
func (s *Set) Sites() []mem.SiteID {
	out := make([]mem.SiteID, 0, len(s.PerSite))
	for site := range s.PerSite {
		out = append(out, site)
	}
	slices.Sort(out)
	return out
}

// Select picks the hot set from an analyzed trace.
func Select(a *trace.Analysis, cfg Config) *Set {
	if cfg.Coverage <= 0 || cfg.Coverage > 1 {
		cfg.Coverage = 0.9
	}
	// Sort compact copies of the keys, so comparisons do not chase
	// object pointers across the analysis.
	type ranked struct {
		accesses uint64
		id       mem.ObjectID
		o        *trace.Object
	}
	objs := make([]ranked, 0, len(a.Objects))
	for _, o := range a.Objects {
		if o.Accesses >= cfg.MinAccesses && o.Accesses > 0 {
			objs = append(objs, ranked{o.Accesses, o.ID, o})
		}
	}
	slices.SortFunc(objs, func(x, y ranked) int {
		if c := cmp.Compare(y.accesses, x.accesses); c != 0 {
			return c
		}
		return cmp.Compare(x.id, y.id) // deterministic tie-break
	})

	// The hot set is the shortest prefix of objs that reaches the
	// coverage target (at least one object), cut at the cap.
	target := uint64(cfg.Coverage * float64(a.HeapAccesses))
	var covered uint64
	var hot []*trace.Object
	for _, r := range objs {
		if (cfg.MaxObjects > 0 && len(hot) >= cfg.MaxObjects) || (covered >= target && len(hot) > 0) {
			break
		}
		covered += r.accesses
		hot = append(hot, r.o)
	}
	s := &Set{
		Objects:         hot,
		IDs:             make(map[mem.ObjectID]bool, len(hot)),
		PerSite:         make(map[mem.SiteID][]mem.Instance),
		CoveredAccesses: covered,
		HeapAccesses:    a.HeapAccesses,
	}
	for _, o := range s.Objects {
		s.IDs[o.ID] = true
		s.PerSite[o.Site] = append(s.PerSite[o.Site], o.Instance)
	}
	for _, insts := range s.PerSite {
		slices.Sort(insts)
	}
	return s
}

// PromoteSites extends the hot set with *every* object of any site whose
// selected-hot fraction is at least threshold (and which allocated at
// least minAllocs objects). This is how "all ids" sites (Table 2) arise:
// when coverage-based selection already marks nearly all of a site's
// instances hot, the paper's planner treats the whole site as hot, which
// both simplifies the runtime check (no id comparison at all) and enables
// recycling.
func (s *Set) PromoteSites(a *trace.Analysis, threshold float64, minAllocs uint64) {
	// Promote in sorted site order: promoted objects are appended to
	// s.Objects, so ranging over the PerSite map here would make the
	// tail ordering of the hot set depend on map iteration order.
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
		slices.Sort(s.PerSite[site])
	}
}

// Liveness is the per-site recycling analysis.
type Liveness struct {
	// SiteAllocs is the total dynamic allocations per site.
	SiteAllocs map[mem.SiteID]uint64
	// SiteMaxLive is the peak simultaneously-live object count per site.
	SiteMaxLive map[mem.SiteID]uint64
}

// AnalyzeLiveness extracts the lifetime facts the recycling planner needs.
func AnalyzeLiveness(a *trace.Analysis) Liveness {
	return Liveness{SiteAllocs: a.SiteAllocs, SiteMaxLive: a.SiteMaxLive}
}

// RecyclingCandidate reports whether a site allocates many objects of
// which only a few are simultaneously live — the §2.4 opportunity. ratio
// is the required allocs/max-live factor (the paper's swissmap/leela class
// sites exceed it by orders of magnitude).
func (l Liveness) RecyclingCandidate(site mem.SiteID, ratio float64) bool {
	allocs := l.SiteAllocs[site]
	live := l.SiteMaxLive[site]
	if live == 0 || allocs == 0 {
		return false
	}
	return float64(allocs) >= ratio*float64(live)
}
