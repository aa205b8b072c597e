package machine

import (
	"sort"
	"strconv"

	"prefix/internal/cachesim"
	"prefix/internal/mem"
	"prefix/internal/obs"
)

// Attribution mode charges every simulated cache/TLB event to the malloc
// site whose live allocation the access touched, the object-centric view
// DJXPerf builds from PEBS samples and the paper builds from its trace.
// It is strictly optional: a machine without WithAttribution runs the
// exact PR 7 zero-allocation fast path (one nil check per access), and a
// machine with it pays one Counts snapshot-subtract plus one page-table
// lookup per access and O(live allocations + sites) memory.
//
// Accesses outside any live tracked allocation (globals, stack, freed
// memory, realloc'd-away ranges) land in a sentinel cell reported as
// site 0 / "other", so the per-site cells always sum to the aggregate
// hierarchy Counts exactly.

// attrib is the per-machine attribution state: a dense site index, one
// flat Counts cell per site, and the live-allocation index resolving an
// address to the cell of the allocation holding it.
type attrib struct {
	idxOf map[mem.SiteID]int32
	sites []mem.SiteID // cell index -> site id; sites[0] == 0 (sentinel)
	cells []cachesim.Counts
	live  mem.LiveIndex // live allocation -> owning cell index
}

func newAttrib() *attrib {
	return &attrib{
		idxOf: make(map[mem.SiteID]int32),
		sites: []mem.SiteID{0},
		cells: make([]cachesim.Counts, 1),
	}
}

// cellOf returns the dense cell index for site, growing the flat arrays
// on first sight of a site.
func (a *attrib) cellOf(site mem.SiteID) int32 {
	idx, ok := a.idxOf[site]
	if !ok {
		idx = int32(len(a.cells))
		a.idxOf[site] = idx
		a.sites = append(a.sites, site)
		a.cells = append(a.cells, cachesim.Counts{})
	}
	return idx
}

// register tracks a fresh allocation [addr, addr+size) for site. An
// allocator re-serving a live address replaces the stale range.
func (a *attrib) register(site mem.SiteID, addr mem.Addr, size uint64) {
	if addr == mem.NilAddr {
		return
	}
	a.live.Insert(addr, size, int(a.cellOf(site)))
}

// unregister drops the allocation starting at addr; unknown addresses
// (foreign frees the allocator tolerates) are ignored.
func (a *attrib) unregister(addr mem.Addr) { a.live.Remove(addr) }

// realloc moves attribution from old to nu, keeping the owning site. A
// realloc of an untracked address charges the new range to the sentinel.
func (a *attrib) realloc(old, nu mem.Addr, size uint64) {
	idx, _ := a.live.Remove(old)
	if nu == mem.NilAddr {
		return
	}
	a.live.Insert(nu, size, idx)
}

// observe charges one access's Counts delta to the cell owning addr.
func (a *attrib) observe(addr mem.Addr, d cachesim.Counts) {
	a.cells[a.resolve(addr)].Add(d)
}

// resolve maps an address to its owning cell: the live allocation
// holding it, or the sentinel.
func (a *attrib) resolve(addr mem.Addr) int {
	idx, _ := a.live.Find(addr)
	return idx
}

// SiteAttrib is one site's attributed share of the run's simulation
// events. Site 0 collects unattributed traffic (globals, stack, freed
// memory); every other entry is a workload malloc site.
type SiteAttrib struct {
	Site        mem.SiteID      `json:"site"`
	Counts      cachesim.Counts `json:"counts"`
	StallCycles float64         `json:"stall_cycles"`
}

// AttribCounts is a run's attribution snapshot: per-site event counts
// whose sum equals the aggregate hierarchy Counts exactly (every access
// delta lands in exactly one cell). Sites are sorted by id, sentinel
// first; the zero value (Enabled false) is what a machine without
// attribution returns.
type AttribCounts struct {
	Enabled bool         `json:"enabled"`
	Sites   []SiteAttrib `json:"sites,omitempty"`
}

// Total sums every cell, reproducing the run's aggregate Counts.
func (a AttribCounts) Total() cachesim.Counts {
	var t cachesim.Counts
	for _, s := range a.Sites {
		t.Add(s.Counts)
	}
	return t
}

// Of returns the entry for site, if present.
func (a AttribCounts) Of(site mem.SiteID) (SiteAttrib, bool) {
	for _, s := range a.Sites {
		if s.Site == site {
			return s, true
		}
	}
	return SiteAttrib{}, false
}

// Top returns up to n real sites (the sentinel is excluded) ordered by
// LLC misses descending, then L1 misses, then site id — the DJXPerf-style
// "which objects cause the misses" ranking.
func (a AttribCounts) Top(n int) []SiteAttrib {
	top := make([]SiteAttrib, 0, len(a.Sites))
	for _, s := range a.Sites {
		if s.Site != 0 {
			top = append(top, s)
		}
	}
	sort.Slice(top, func(i, j int) bool {
		ci, cj := top[i].Counts, top[j].Counts
		if ci.LLCMisses != cj.LLCMisses {
			return ci.LLCMisses > cj.LLCMisses
		}
		if ci.L1Misses != cj.L1Misses {
			return ci.L1Misses > cj.L1Misses
		}
		return top[i].Site < top[j].Site
	})
	if n > 0 && len(top) > n {
		top = top[:n]
	}
	return top
}

// LLCMissSharePct is site's percentage of the run's total LLC misses.
func (a AttribCounts) LLCMissSharePct(site mem.SiteID) float64 {
	total := a.Total().LLCMisses
	if total == 0 {
		return 0
	}
	s, ok := a.Of(site)
	if !ok {
		return 0
	}
	return 100 * float64(s.Counts.LLCMisses) / float64(total)
}

// siteLabel renders a site id as a metric label value; the sentinel cell
// becomes "other" so dashboards don't show a phantom site 0.
func siteLabel(s mem.SiteID) string {
	if s == 0 {
		return "other"
	}
	return strconv.FormatUint(uint64(s), 10)
}

// Publish reports the per-site attribution series under the given label
// pairs plus a "site" label. Nil-safe and a no-op for disabled snapshots.
func (a AttribCounts) Publish(reg *obs.Registry, kv ...string) {
	if reg == nil || !a.Enabled {
		return
	}
	totalLLC := a.Total().LLCMisses
	for _, s := range a.Sites {
		skv := make([]string, 0, len(kv)+2)
		skv = append(append(skv, kv...), "site", siteLabel(s.Site))
		c := s.Counts
		reg.Counter("prefix_attrib_accesses_total", skv...).Add(c.Accesses)
		reg.Counter("prefix_attrib_l1_misses_total", skv...).Add(c.L1Misses)
		reg.Counter("prefix_attrib_llc_misses_total", skv...).Add(c.LLCMisses)
		reg.Counter("prefix_attrib_tlb_misses_total", skv...).Add(c.TLB1Miss + c.TLB2Miss)
		reg.Gauge("prefix_attrib_stall_cycles", skv...).Set(s.StallCycles)
		if totalLLC > 0 {
			reg.Gauge("prefix_attrib_llc_miss_share", skv...).Set(float64(c.LLCMisses) / float64(totalLLC))
		}
	}
}
