package cachesim

import (
	"reflect"
	"testing"

	"prefix/internal/mem"
)

func testConfig() Config {
	c := ScaledConfig()
	c.NextLinePrefetch = false
	return c
}

func TestHierarchyCounts(t *testing.T) {
	h := New(testConfig())
	h.Access(0x1000, 8)
	h.Access(0x1000, 8)
	c := h.Counts()
	if c.Accesses != 2 {
		t.Errorf("accesses = %d", c.Accesses)
	}
	if c.L1Hits != 1 || c.L1Misses != 1 || c.LLCMisses != 1 || c.LLCHits != 0 {
		t.Errorf("counts = %+v", c)
	}
	if c.TLB1Miss != 1 || c.TLB2Miss != 1 {
		t.Errorf("tlb = %+v", c)
	}
}

func TestLineStraddle(t *testing.T) {
	h := New(testConfig())
	h.Access(0x1030, 32) // spans 0x1000 and 0x1040 lines
	c := h.Counts()
	if c.Accesses != 1 {
		t.Errorf("straddle must count one access, got %d", c.Accesses)
	}
	if c.L1Hits != 0 || c.L1Misses != 2 {
		t.Errorf("cold straddle should miss both lines: %d hits, %d misses", c.L1Hits, c.L1Misses)
	}
	h.Access(0x1030, 32)
	if c := h.Counts(); c.L1Hits != 2 || c.L1Misses != 2 {
		t.Errorf("warm straddle should hit both lines: %d hits, %d misses", c.L1Hits, c.L1Misses)
	}
}

func TestZeroSizeAccess(t *testing.T) {
	h := New(testConfig())
	h.Access(0x1000, 0)
	if h.Counts().Accesses != 1 || h.Counts().L1Misses != 1 {
		t.Error("zero-size access should behave like 1 byte")
	}
}

func TestLLCHitAfterL1Eviction(t *testing.T) {
	cfg := testConfig()
	h := New(cfg)
	h.Access(0x1000, 8)
	// Thrash L1 (32KB) while staying inside the LLC.
	for a := mem.Addr(0x100000); a < 0x100000+64<<10; a += 64 {
		h.Access(a, 8)
	}
	before := h.Counts()
	h.Access(0x1000, 8)
	after := h.Counts()
	if after.L1Misses != before.L1Misses+1 {
		t.Error("expected L1 miss after eviction")
	}
	if after.LLCMisses != before.LLCMisses {
		t.Error("line should still be in LLC")
	}
	if after.LLCHits != before.LLCHits+1 {
		t.Error("expected LLC hit")
	}
}

func TestNextLinePrefetch(t *testing.T) {
	cfg := testConfig()
	cfg.NextLinePrefetch = true
	h := New(cfg)
	// Sequential sweep: every line except the first should be an LLC hit
	// thanks to the prefetcher.
	for a := mem.Addr(0x1000); a < 0x1000+4096; a += 64 {
		h.Access(a, 8)
	}
	c := h.Counts()
	if c.LLCMisses != 1 {
		t.Errorf("sequential sweep with prefetch: LLC misses = %d, want 1", c.LLCMisses)
	}
	if c.Prefetches == 0 {
		t.Error("no prefetches issued")
	}

	// Without prefetch every line misses the LLC.
	h2 := New(testConfig())
	for a := mem.Addr(0x1000); a < 0x1000+4096; a += 64 {
		h2.Access(a, 8)
	}
	if h2.Counts().LLCMisses != 64 {
		t.Errorf("no-prefetch sweep: LLC misses = %d, want 64", h2.Counts().LLCMisses)
	}
}

func TestStridedSweepDefeatsPrefetch(t *testing.T) {
	cfg := testConfig()
	cfg.NextLinePrefetch = true
	h := New(cfg)
	// Stride-128 sweep touches every other line; the next-line prefetch
	// fetches the untouched ones, so demand misses stay high.
	for a := mem.Addr(0x1000); a < 0x1000+8192; a += 128 {
		h.Access(a, 8)
	}
	if got := h.Counts().LLCMisses; got != 64 {
		t.Errorf("strided sweep LLC misses = %d, want 64", got)
	}
}

func TestSharedLLC(t *testing.T) {
	cfg := testConfig()
	llc := SharedLLC(cfg)
	a := NewShared(cfg, llc)
	b := NewShared(cfg, llc)
	a.Access(0x1000, 8)
	b.Access(0x1000, 8) // misses its private L1, hits the shared LLC
	if b.Counts().L1Misses != 1 {
		t.Error("thread b should miss its private L1")
	}
	if b.Counts().LLCMisses != 0 {
		t.Error("thread b should hit the shared LLC")
	}
}

func TestPaperConfigGeometry(t *testing.T) {
	cfg := PaperConfig()
	if cfg.L1Size != 32<<10 || cfg.L1Ways != 8 || cfg.LLCSize != 40<<20 || cfg.LLCWays != 20 {
		t.Errorf("paper cache geometry wrong: %+v", cfg)
	}
	if cfg.TLB1Entries != 64 || cfg.TLB1Ways != 4 || cfg.TLB2Entries != 1536 || cfg.TLB2Ways != 6 {
		t.Errorf("paper TLB geometry wrong: %+v", cfg)
	}
	// Must construct without panicking.
	New(cfg)
}

// TestTinyPageRejected: a 1-byte page would let a page number reach the
// L1 TLB memo's start value, so the constructor refuses it.
func TestTinyPageRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a 1-byte page was accepted")
		}
	}()
	cfg := ScaledConfig()
	cfg.Page = 1
	cfg.TLB1Entries, cfg.TLB1Ways = 4, 4
	cfg.TLB2Entries, cfg.TLB2Ways = 4, 4
	New(cfg)
}

func TestCostModel(t *testing.T) {
	m := DefaultCost()
	var c Counts
	c.Accesses = 100
	base := m.Cycles(1000, c)
	c.LLCMisses = 10
	withMisses := m.Cycles(1000, c)
	if withMisses-base != 10*m.LLCMissCycles {
		t.Errorf("LLC miss cost wrong: %v vs %v", withMisses, base)
	}
	if m.StallCycles(c) != 10*m.LLCMissCycles {
		t.Errorf("stall cycles = %v", m.StallCycles(c))
	}
}

// TestCountsAdd sets every Counts field, so Add cannot drop one.
func TestCountsAdd(t *testing.T) {
	a := filledCounts(1)
	b := a
	b.Add(a)
	v := reflect.ValueOf(b)
	for i := 0; i < v.NumField(); i++ {
		if got, want := v.Field(i).Uint(), 2*(1+uint64(i)); got != want {
			t.Errorf("Add: %s = %d, want %d", v.Type().Field(i).Name, got, want)
		}
	}
}

func TestRates(t *testing.T) {
	c := Counts{Accesses: 200, L1Misses: 50, LLCMisses: 10}
	if c.L1MissRate() != 0.25 {
		t.Errorf("L1 rate %v", c.L1MissRate())
	}
	if c.LLCMissRate() != 0.05 {
		t.Errorf("LLC rate %v", c.LLCMissRate())
	}
	var zero Counts
	if zero.L1MissRate() != 0 || zero.LLCMissRate() != 0 {
		t.Error("zero-access rates should be 0")
	}
}

func TestTLBBehaviour(t *testing.T) {
	h := New(testConfig())
	h.Access(0x1000, 8)
	h.Access(0x1008, 8) // same page: no new TLB miss
	c := h.Counts()
	if c.TLB1Miss != 1 {
		t.Errorf("TLB1 misses = %d, want 1", c.TLB1Miss)
	}
	h.Access(0x2000, 8) // new page
	if h.Counts().TLB1Miss != 2 {
		t.Error("new page should miss TLB")
	}
}

// TestAccessAtAddressSpaceTop: an access whose last byte would lie past
// 2^64 stops at the last line of the address space instead of wrapping
// its line walk around to line 0.
func TestAccessAtAddressSpaceTop(t *testing.T) {
	h := New(ScaledConfig())
	h.Access(mem.Addr(^uint64(0)-10), 64)
	c := h.Counts()
	if c.Accesses != 1 {
		t.Errorf("accesses = %d, want 1", c.Accesses)
	}
	if c.L1Misses != 1 {
		t.Errorf("L1 misses = %d, want 1 (only the top line)", c.L1Misses)
	}
}
