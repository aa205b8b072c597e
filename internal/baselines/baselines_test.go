package baselines

import (
	"testing"

	"prefix/internal/cachesim"
	"prefix/internal/mem"
)

func cost() cachesim.CostModel { return cachesim.DefaultCost() }

func TestBaselineBasics(t *testing.T) {
	b := NewBaseline(cost())
	a1, instr := b.Malloc(1, 0, 64)
	if a1 == mem.NilAddr || instr != cost().MallocInstr {
		t.Errorf("malloc: %v %d", a1, instr)
	}
	if got := b.Free(a1); got != cost().FreeInstr {
		t.Errorf("free cost = %d", got)
	}
	a2, _ := b.Malloc(2, 0, 64)
	na, _ := b.Realloc(a2, 128)
	if na == mem.NilAddr {
		t.Error("realloc failed")
	}
	if b.PeakBytes() == 0 {
		t.Error("peak not tracked")
	}
}

func TestHotSet(t *testing.T) {
	hs := make(HotSet)
	hs.Add(1, 3)
	hs.Add(1, 5)
	if !hs.Has(1, 3) || !hs.Has(1, 5) || hs.Has(1, 4) || hs.Has(2, 3) {
		t.Error("hot set membership wrong")
	}
}

func TestPollution(t *testing.T) {
	p := Pollution{Hot: 3, All: 10}
	if p.Spurious() != 7 {
		t.Errorf("spurious = %d", p.Spurious())
	}
}

func TestHDSRedirectsChosenSites(t *testing.T) {
	hot := make(HotSet)
	hot.Add(1, 1)
	h := NewHDS([]mem.SiteID{1}, hot, cost())
	a1, _ := h.Malloc(1, 0, 64) // chosen site: region
	a2, _ := h.Malloc(2, 0, 64) // other site: heap
	if a1 < HDSRegionBase {
		t.Error("chosen site not redirected")
	}
	if a2 >= HDSRegionBase {
		t.Error("unchosen site redirected")
	}
}

func TestHDSPollutionAccounting(t *testing.T) {
	hot := make(HotSet)
	hot.Add(1, 1) // only the first instance is hot
	h := NewHDS([]mem.SiteID{1}, hot, cost())
	for i := 0; i < 5; i++ {
		h.Malloc(1, 0, 32)
	}
	p := h.Pollution()
	if p.Hot != 1 || p.All != 5 {
		t.Errorf("pollution = %+v, want 1/5", p)
	}
	if p.Spurious() != 4 {
		t.Errorf("spurious = %d", p.Spurious())
	}
}

func TestHDSFreeRouting(t *testing.T) {
	h := NewHDS([]mem.SiteID{1}, make(HotSet), cost())
	r, _ := h.Malloc(1, 0, 64)
	hp, _ := h.Malloc(2, 0, 64)
	h.Free(r)
	h.Free(hp)
	// Region reuses its own freed space.
	r2, _ := h.Malloc(1, 0, 64)
	if r2 != r {
		t.Error("region free list not reused")
	}
	// Realloc keeps objects on their side.
	r3, _ := h.Realloc(r2, 128)
	if r3 < HDSRegionBase {
		t.Error("region realloc left the region")
	}
	h2, _ := h.Malloc(2, 0, 32)
	h3, _ := h.Realloc(h2, 64)
	if h3 >= HDSRegionBase {
		t.Error("heap realloc entered the region")
	}
}

func haloCfg(sigs ...mem.StackSig) HALOConfig {
	cfg := HALOConfig{Groups: make(map[mem.StackSig]HALOGroup)}
	for i, s := range sigs {
		cfg.Groups[s] = HALOGroup(i % 2)
	}
	cfg.NumGroups = 2
	return cfg
}

func TestHALOPoolsBySignature(t *testing.T) {
	h := NewHALO(haloCfg(0xaaa, 0xbbb), make(HotSet), cost())
	a, _ := h.Malloc(1, 0xaaa, 64)
	b, _ := h.Malloc(2, 0xbbb, 64)
	c, _ := h.Malloc(3, 0xccc, 64) // unknown signature: heap
	if a < HALOPoolBase || b < HALOPoolBase {
		t.Error("known signatures should be pooled")
	}
	if uint64(a-HALOPoolBase)/haloPoolStride == uint64(b-HALOPoolBase)/haloPoolStride {
		t.Error("different groups share a pool")
	}
	if c >= HALOPoolBase {
		t.Error("unknown signature pooled")
	}
}

func TestHALOSameSignaturePollutes(t *testing.T) {
	// The Figure 3 imprecision: cold allocations under the hot stack
	// signature land in the pool and count as pollution.
	hot := make(HotSet)
	hot.Add(1, 1)
	h := NewHALO(haloCfg(0xaaa), hot, cost())
	for i := 0; i < 6; i++ {
		h.Malloc(1, 0xaaa, 32)
	}
	p := h.Pollution()
	if p.Hot != 1 || p.All != 6 {
		t.Errorf("pollution = %+v", p)
	}
}

func TestHALOFreeListReuse(t *testing.T) {
	h := NewHALO(haloCfg(0xaaa), make(HotSet), cost())
	a, _ := h.Malloc(1, 0xaaa, 64)
	h.Free(a)
	b, _ := h.Malloc(1, 0xaaa, 64)
	if b != a {
		t.Error("pool must reuse freed blocks of the same size class")
	}
}

func TestHALOReallocInPool(t *testing.T) {
	h := NewHALO(haloCfg(0xaaa), make(HotSet), cost())
	a, _ := h.Malloc(1, 0xaaa, 64)
	na, _ := h.Realloc(a, 32)
	if na != a {
		t.Error("shrinking pool realloc should stay")
	}
	na2, _ := h.Realloc(a, 1024)
	if na2 >= HALOPoolBase {
		t.Error("grown pool object should spill to the heap")
	}
}

// TestHALOReallocMovesOutThroughHeap: with stack signature 0 grouped
// (Groups{0xaaa: 0, 0: 1}), a grown pool object still moves to the heap,
// not into pool 1; the move bumps no site counter and counts no
// pollution; the old block goes back to its pool's free list; and both
// realloc paths charge the cost model's ReallocInstr. A grow the heap
// refuses returns NilAddr and leaves the old block live: the pool must
// not hand it out again.
func TestHALOReallocMovesOutThroughHeap(t *testing.T) {
	h := NewHALO(haloCfg(0xaaa, 0), make(HotSet), cost())
	a, _ := h.Malloc(1, 0xaaa, 64)
	if a < HALOPoolBase || a >= HALOPoolBase+mem.Addr(haloPoolStride) {
		t.Fatalf("precondition: %v not in pool 0", a)
	}
	if na, instr := h.Realloc(a, ^uint64(0)-8); na != mem.NilAddr || instr != cost().ReallocInstr {
		t.Errorf("refused realloc = %v, %d instr; want %v, %d", na, instr, mem.NilAddr, cost().ReallocInstr)
	}
	if b, _ := h.Malloc(1, 0xaaa, 64); b == a {
		t.Fatalf("pool 0 handed out %v again after a refused realloc left it live", a)
	}
	before := h.Pollution()
	if na, instr := h.Realloc(a, 32); na != a || instr != cost().ReallocInstr {
		t.Errorf("in-place realloc = %v, %d instr; want %v, %d", na, instr, a, cost().ReallocInstr)
	}
	na, instr := h.Realloc(a, 1024)
	if na >= HALOPoolBase || instr != cost().ReallocInstr {
		t.Errorf("grown realloc = %v, %d instr; want a heap address, %d", na, instr, cost().ReallocInstr)
	}
	if got := h.Pollution(); got != before {
		t.Errorf("moving out changed pollution %+v to %+v", before, got)
	}
	if h.counters[0] != 0 {
		t.Errorf("moving out bumped site 0's counter to %d", h.counters[0])
	}
	if b, _ := h.Malloc(1, 0xaaa, 64); b != a {
		t.Errorf("pool 0 served %v, not the block the move freed (%v)", b, a)
	}
}

func TestHALOPeakIncludesChunks(t *testing.T) {
	h := NewHALO(haloCfg(0xaaa), make(HotSet), cost())
	h.Malloc(1, 0xaaa, 64)
	if h.PeakBytes() < HALOChunk {
		t.Errorf("peak %d should include a reserved chunk", h.PeakBytes())
	}
}
