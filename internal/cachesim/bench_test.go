package cachesim

import (
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// The microbenchmarks pin the inner-loop cost of the simulator. Run with
// `make bench-micro` (smoke) or `go test -bench . -benchmem ./internal/...`
// for real numbers; allocs/op must stay at 0.

func BenchmarkCacheAccess(b *testing.B) {
	run := func(b *testing.B, stride, span uint64) {
		c := MustCache(32<<10, 64, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.probe(uint64(i) * stride % span >> c.shift)
		}
	}
	// Stride past L1 capacity so hits and misses both occur.
	b.Run("lru", func(b *testing.B) { run(b, 192, 256<<10) })
	// A 16 KB working set fits: every access after the first sweep hits.
	b.Run("hit-heavy", func(b *testing.B) { run(b, 64, 16<<10) })
	// A 64 KB sequential sweep thrashes: every access misses a full set.
	b.Run("miss-heavy", func(b *testing.B) { run(b, 64, 64<<10) })

	// The next two are shaped like the probes of real evaluation runs,
	// which synthetic sweeps misjudge: they once rated a fingerprint probe
	// twice as fast as this one, and it made sim-heavy 18% slower.
	//
	// The scaled 16-way LLC sees a demand probe of blk and the prefetch
	// install of blk+1 per L1 miss, and nearly all of them hit at way 0
	// or 1. Sweeping blk over twice the set count keeps two blocks per
	// set, so each pair hits at ways 1 and 0 once warm.
	b.Run("llc-pairs", func(b *testing.B) {
		c := MustCache(2<<20, 64, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk := uint64(i) % (2 * c.sets)
			c.probe(blk)
			c.probe(blk + 1)
		}
	})
	// Most 8-way L1 probes miss into a full set. A cycle of 16384
	// pseudo-random lines over 16 MB puts about 256 lines on each of the
	// 64 sets, so under LRU almost every probe evicts.
	b.Run("l1-evict", func(b *testing.B) {
		c := MustCache(32<<10, 64, 8)
		rng := xrand.New(1)
		blks := make([]uint64, 1<<14)
		for i := range blks {
			blks[i] = rng.Uint64n(16 << 20 >> 6)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.probe(blks[i&(len(blks)-1)])
		}
	})
}

func BenchmarkHierarchyAccess(b *testing.B) {
	run := func(b *testing.B, prefetch bool, stride uint64) {
		cfg := ScaledConfig()
		cfg.NextLinePrefetch = prefetch
		h := New(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(mem.Addr(uint64(i)*stride%(16<<20)), 8)
		}
	}
	b.Run("demand", func(b *testing.B) { run(b, false, 320) })
	b.Run("prefetch", func(b *testing.B) { run(b, true, 320) })
	// 8-byte sequential accesses: 511 of every 512 share the previous
	// access's page, so the L1 TLB memo serves them.
	b.Run("page-local", func(b *testing.B) { run(b, true, 8) })
}
