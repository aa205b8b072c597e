package cachesim

import (
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// refCache reimplements the pre-flat tag storage — one []uint64 per set,
// grown on demand — with the pre-fusion LRU probe (find, then move to
// front with copy), so it is a behavioural oracle for the flat layout
// and the one-pass probe.
type refCache struct {
	sets  uint64
	ways  int
	shift uint
	tags  [][]uint64
}

func newRefCache(size, line uint64, ways int) *refCache {
	lines := size / line
	sets := lines / uint64(ways)
	var shift uint
	for l := line; l > 1; l >>= 1 {
		shift++
	}
	return &refCache{
		sets: sets, ways: ways, shift: shift,
		tags: make([][]uint64, sets),
	}
}

func (r *refCache) access(addr mem.Addr) bool {
	return r.accessBlock(uint64(addr) >> r.shift)
}

func (r *refCache) accessBlock(block uint64) bool {
	si := block & (r.sets - 1)
	ws := r.tags[si]
	for i, tag := range ws {
		if tag == block {
			copy(ws[1:i+1], ws[:i])
			ws[0] = block
			return true
		}
	}
	if len(ws) < r.ways {
		ws = append(ws, 0)
		r.tags[si] = ws
	}
	copy(ws[1:], ws)
	ws[0] = block
	return false
}

// TestFlatMatchesReferenceAllPolicies drives the flat cache and the
// slice-per-set oracle with the same mixed address stream (sequential
// sweeps, strides, pseudo-random) and demands identical hit/miss
// outcomes at every single access. LRU is the only policy.
func TestFlatMatchesReferenceAllPolicies(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		c := MustCache(4096, 64, 4)
		ref := newRefCache(4096, 64, 4)
		rng := xrand.New(42)
		step := 0
		drive := func(a mem.Addr) {
			step++
			if got, want := touch(c, a), ref.access(a); got != want {
				t.Fatalf("step %d addr %v: flat=%v ref=%v", step, a, got, want)
			}
		}
		for a := mem.Addr(0); a < 8<<10; a += 64 { // sequential
			drive(a)
		}
		for a := mem.Addr(0); a < 32<<10; a += 192 { // strided
			drive(a)
		}
		for i := 0; i < 5000; i++ { // pseudo-random
			drive(mem.Addr(rng.Uint64n(64 << 10)))
		}
		for a := mem.Addr(0); a < 64<<10; a += 64 { // capacity thrash
			drive(a)
		}
	})
}

// TestStraddleMatchesReference covers accesses spanning a line boundary:
// the hierarchy walks both lines, so the per-line transitions must match
// the oracle driven line by line.
func TestStraddleMatchesReference(t *testing.T) {
	c := MustCache(4096, 64, 4)
	ref := newRefCache(4096, 64, 4)
	rng := xrand.New(7)
	for i := 0; i < 4000; i++ {
		a := mem.Addr(rng.Uint64n(32 << 10))
		size := 1 + rng.Uint64n(256) // frequently straddles
		first := uint64(a) >> 6
		last := (uint64(a) + size - 1) >> 6
		for blk := first; blk <= last; blk++ {
			if got, want := c.probe(blk), ref.access(mem.Addr(blk<<6)); got != want {
				t.Fatalf("access %d blk %#x: flat=%v ref=%v", i, blk, got, want)
			}
		}
	}
}

// TestPrefetchDoesNotInflateLLCDemand is the regression test for the
// accounting bug where next-line prefetches were issued through the
// demand path: every L1 miss is exactly one LLC demand lookup, and the
// prefetch each one issues is counted in Prefetches alone.
func TestPrefetchDoesNotInflateLLCDemand(t *testing.T) {
	cfg := testConfig()
	cfg.NextLinePrefetch = true
	h := New(cfg)
	rng := xrand.New(5)
	for i := 0; i < 20000; i++ {
		h.Access(mem.Addr(rng.Uint64n(8<<20)), 8)
	}
	c := h.Counts()
	if c.Prefetches == 0 {
		t.Fatal("workload issued no prefetches; test is vacuous")
	}
	if got, want := c.LLCHits+c.LLCMisses, c.L1Misses; got != want {
		t.Errorf("LLC demand lookups = %d, want %d L1 misses (prefetches=%d leaked into demand counts)",
			got, want, c.Prefetches)
	}
	if c.Prefetches != c.L1Misses {
		t.Errorf("prefetches = %d, want one per L1 miss (%d)", c.Prefetches, c.L1Misses)
	}
}

// TestCacheAccessZeroAllocs: after construction, a probe must never
// allocate — including the eviction path.
func TestCacheAccessZeroAllocs(t *testing.T) {
	c := MustCache(4096, 64, 4)
	var i uint64
	if n := testing.AllocsPerRun(10000, func() {
		c.probe(i)
		i++
	}); n != 0 {
		t.Errorf("probe allocates %.1f per op", n)
	}
}

// TestHierarchyAccessZeroAllocs: the full L1→LLC→TLB walk with the
// prefetcher on must be allocation-free.
func TestHierarchyAccessZeroAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.NextLinePrefetch = true
	h := New(cfg)
	rng := xrand.New(11)
	if n := testing.AllocsPerRun(10000, func() {
		h.Access(mem.Addr(rng.Uint64n(8<<20)), 8)
	}); n != 0 {
		t.Errorf("Hierarchy.Access allocates %.1f per op", n)
	}
}

// refHierarchy is Hierarchy rebuilt from refCache levels, with no L1 TLB
// memo and the pre-fusion probe: an oracle for the whole walk.
type refHierarchy struct {
	cfg                 Config
	l1, llc, tlb1, tlb2 *refCache
	counts              Counts
}

func newRefHierarchy(cfg Config, llc *refCache) *refHierarchy {
	return &refHierarchy{
		cfg:  cfg,
		l1:   newRefCache(cfg.L1Size, cfg.Line, cfg.L1Ways),
		llc:  llc,
		tlb1: newRefCache(uint64(cfg.TLB1Entries)*cfg.Page, cfg.Page, cfg.TLB1Ways),
		tlb2: newRefCache(uint64(cfg.TLB2Entries)*cfg.Page, cfg.Page, cfg.TLB2Ways),
	}
}

func (r *refHierarchy) access(addr mem.Addr, size uint64) {
	if size == 0 {
		size = 1
	}
	r.counts.Accesses++
	a := uint64(addr)
	page := a / r.cfg.Page
	if !r.tlb1.accessBlock(page) {
		r.counts.TLB1Miss++
		if !r.tlb2.accessBlock(page) {
			r.counts.TLB2Miss++
		}
	}
	end := ^uint64(0)
	if size-1 <= end-a {
		end = a + size - 1
	}
	for blk := a / r.cfg.Line; blk <= end/r.cfg.Line; blk++ {
		if r.l1.accessBlock(blk) {
			r.counts.L1Hits++
			continue
		}
		r.counts.L1Misses++
		if r.llc.accessBlock(blk) {
			r.counts.LLCHits++
		} else {
			r.counts.LLCMisses++
		}
		if r.cfg.NextLinePrefetch {
			r.llc.accessBlock(blk + 1)
			r.counts.Prefetches++
		}
	}
}

// refAccess is one reference of a differential address stream.
type refAccess struct {
	addr mem.Addr
	size uint64
}

// referenceStream mixes the access shapes the hierarchy's fast paths
// care about: runs on one page (the L1 TLB memo), line straddles,
// strides past L1 capacity, pseudo-random references, and accesses
// running off the top of the address space.
func referenceStream(seed uint64) []refAccess {
	rng := xrand.New(seed)
	var s []refAccess
	for run := 0; run < 200; run++ { // same-page runs
		page := rng.Uint64n(1<<12) << 12
		for i := uint64(0); i < 32; i++ {
			s = append(s, refAccess{mem.Addr(page + rng.Uint64n(4096)), 8})
		}
	}
	for i := 0; i < 3000; i++ { // line straddles
		s = append(s, refAccess{mem.Addr(rng.Uint64n(1<<20)*64 + 60), 1 + rng.Uint64n(128)})
	}
	for a := uint64(0); a < 256<<10; a += 320 { // stride past L1
		s = append(s, refAccess{mem.Addr(a), 8})
	}
	for i := 0; i < 6000; i++ { // pseudo-random
		s = append(s, refAccess{mem.Addr(rng.Uint64n(1 << 26)), rng.Uint64n(64)})
	}
	for i := uint64(0); i < 4; i++ { // address-space top
		s = append(s, refAccess{mem.Addr(^uint64(0) - i*100), 256})
	}
	return s
}

// TestHierarchyMatchesReference drives Hierarchy and refHierarchy with
// the same streams and requires identical Counts after every access,
// across hierarchy shapes. Two hierarchies sharing one LLC run
// interleaved, so traffic from the other thread reaches the shared
// level between a thread's same-page accesses: the private L1 TLB memo
// must stay exact regardless.
func TestHierarchyMatchesReference(t *testing.T) {
	noPrefetch := ScaledConfig()
	noPrefetch.NextLinePrefetch = false
	configs := []struct {
		name string
		cfg  Config
	}{
		{"paper", PaperConfig()},
		{"scaled", ScaledConfig()},
		{"no-prefetch", noPrefetch},
	}
	for ci, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			h := New(tc.cfg)
			ref := newRefHierarchy(tc.cfg, newRefCache(tc.cfg.LLCSize, tc.cfg.Line, tc.cfg.LLCWays))
			for i, r := range referenceStream(uint64(ci) + 1) {
				h.Access(r.addr, r.size)
				ref.access(r.addr, r.size)
				if h.Counts() != ref.counts {
					t.Fatalf("access %d (%v, %d): got %+v, want %+v", i, r.addr, r.size, h.Counts(), ref.counts)
				}
			}
		})
	}
	t.Run("shared-llc", func(t *testing.T) {
		cfg := ScaledConfig()
		llc, refLLC := SharedLLC(cfg), newRefCache(cfg.LLCSize, cfg.Line, cfg.LLCWays)
		hs := []*Hierarchy{NewShared(cfg, llc), NewShared(cfg, llc)}
		refs := []*refHierarchy{newRefHierarchy(cfg, refLLC), newRefHierarchy(cfg, refLLC)}
		streams := [][]refAccess{referenceStream(11), referenceStream(12)}
		for i := 0; i < len(streams[0]) && i < len(streams[1]); i++ {
			for th := range hs {
				r := streams[th][i]
				hs[th].Access(r.addr, r.size)
				refs[th].access(r.addr, r.size)
				if hs[th].Counts() != refs[th].counts {
					t.Fatalf("thread %d access %d (%v, %d): got %+v, want %+v",
						th, i, r.addr, r.size, hs[th].Counts(), refs[th].counts)
				}
			}
		}
	})
}
