package cachesim

import (
	"testing"
	"testing/quick"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// touch probes the block holding addr, as Hierarchy does for each line.
func touch(c *Cache, addr mem.Addr) bool { return c.probe(uint64(addr) >> c.shift) }

func TestGeometryValidation(t *testing.T) {
	if _, err := NewCache(32<<10, 64, 8); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []struct {
		size, line uint64
		ways       int
	}{
		{0, 64, 8},
		{32 << 10, 0, 8},
		{32 << 10, 64, 0},
		{32 << 10, 63, 8},    // non-power-of-two line
		{32 << 10, 1, 8},     // 1-byte line: block ^0 would read as an empty way
		{48 << 10, 64, 8},    // set count not a power of two
		{32 << 10, 64, 768},  // lines not divisible by ways... (512/768)
		{32, 64, 8},          // smaller than a line: zero sets
		{63, 64, 1},          // smaller than a line: zero sets
		{32<<10 + 32, 64, 8}, // not a multiple of the line
	}
	for _, c := range bad {
		if _, err := NewCache(c.size, c.line, c.ways); err == nil {
			t.Errorf("geometry %+v accepted", c)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c := MustCache(1024, 64, 2)
	if touch(c, 0x100) {
		t.Error("first access should miss")
	}
	if !touch(c, 0x100) {
		t.Error("second access should hit")
	}
	if !touch(c, 0x13f) {
		t.Error("same-line access should hit")
	}
	if touch(c, 0x140) {
		t.Error("next line should miss")
	}
}

// TestFreshCacheMissesExtremeBlocks: an empty way is the zero word, the
// complement of block ^0, so a fresh cache must still miss on block 0 and
// on 1<<63, the next-line successor of the top 2-byte line.
func TestFreshCacheMissesExtremeBlocks(t *testing.T) {
	for _, block := range []uint64{0, 1 << 63} {
		c := MustCache(1024, 2, 4)
		if c.probe(block) {
			t.Errorf("fresh cache hit on block %#x", block)
		}
		if !c.probe(block) {
			t.Errorf("block %#x missed right after its fill", block)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 sets, 2 ways, 64B lines => lines mapping to set 0: 0, 128, 256...
	c := MustCache(256, 64, 2)
	touch(c, 0)   // set0: [0]
	touch(c, 128) // set0: [128 0]
	touch(c, 0)   // set0: [0 128] (MRU refresh)
	touch(c, 256) // evicts 128
	if !touch(c, 0) {
		t.Error("line 0 should have survived (was MRU)")
	}
	if touch(c, 128) {
		t.Error("line 128 should have been evicted")
	}
}

func TestLRURefreshesOnHit(t *testing.T) {
	c := MustCache(128, 64, 2)
	touch(c, 0)
	touch(c, 1<<20)
	touch(c, 0)
	touch(c, 2<<20)
	if !touch(c, 0) {
		t.Error("LRU should keep the refreshed line")
	}
	if touch(c, 1<<20) {
		t.Error("LRU should evict the least recent line")
	}
}

// referenceLRU is a slow, obviously-correct fully-indexed model.
type referenceLRU struct {
	sets  uint64
	ways  int
	shift uint
	sets_ []([]uint64)
}

func newReferenceLRU(size, line uint64, ways int) *referenceLRU {
	lines := size / line
	sets := lines / uint64(ways)
	var shift uint
	for l := line; l > 1; l >>= 1 {
		shift++
	}
	r := &referenceLRU{sets: sets, ways: ways, shift: shift}
	r.sets_ = make([][]uint64, sets)
	return r
}

func (r *referenceLRU) access(addr mem.Addr) bool {
	block := uint64(addr) >> r.shift
	si := block & (r.sets - 1)
	set := r.sets_[si]
	for i, b := range set {
		if b == block {
			r.sets_[si] = append([]uint64{block}, append(set[:i:i], set[i+1:]...)...)
			return true
		}
	}
	set = append([]uint64{block}, set...)
	if len(set) > r.ways {
		set = set[:r.ways]
	}
	r.sets_[si] = set
	return false
}

// TestAgainstReferenceModel: property — the cache matches a trivially
// correct LRU model on random address streams.
func TestAgainstReferenceModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		c := MustCache(4096, 64, 4)
		ref := newReferenceLRU(4096, 64, 4)
		for i := 0; i < 3000; i++ {
			a := mem.Addr(rng.Uint64n(32 << 10))
			if touch(c, a) != ref.access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// sweepMisses touches [0, span) line by line reps times and returns the
// number of misses.
func sweepMisses(c *Cache, span mem.Addr, reps int) (misses int) {
	for rep := 0; rep < reps; rep++ {
		for a := mem.Addr(0); a < span; a += 64 {
			if !touch(c, a) {
				misses++
			}
		}
	}
	return misses
}

func TestWorkingSetFits(t *testing.T) {
	// 16KB working set fits a 32KB cache: second sweep must be all hits.
	if got := sweepMisses(MustCache(32<<10, 64, 8), 16<<10, 2); got != 256 {
		t.Errorf("misses = %d, want 256 (first sweep only)", got)
	}
}

func TestWorkingSetThrashes(t *testing.T) {
	// A 64KB working set in a 32KB cache with a sequential sweep thrashes
	// under LRU: every access misses.
	if got := sweepMisses(MustCache(32<<10, 64, 8), 64<<10, 3); got != 3*1024 {
		t.Errorf("sequential over-capacity sweep should always miss: %d/%d", got, 3*1024)
	}
}
