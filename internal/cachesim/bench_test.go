package cachesim

import (
	"testing"

	"prefix/internal/mem"
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
