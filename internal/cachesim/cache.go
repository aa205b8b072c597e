// Package cachesim simulates the memory hierarchy the paper measures with
// DrCacheSim and hardware counters: a set-associative L1 data cache, a
// shared last-level cache, a two-level data TLB, and a cycle cost model
// that stands in for execution time and backend-stall measurements.
//
// The default geometry matches the paper's evaluation machine (§3.2):
// 32 KB 8-way L1 with 64 B lines; 40 MB 20-way LLC with 64 B lines; TLB
// with 64-entry 4-way L1 and 1536-entry 6-way L2. A scaled configuration
// with a smaller LLC is provided so the full 13-benchmark harness runs in
// seconds; EXPERIMENTS.md documents the scaling.
//
// Every level is one flat array of complemented tags, where a zero word
// is an empty way, changed only by a one-pass move-to-front probe that
// inlines into the hierarchy walk (see Cache and DESIGN.md §4f).
package cachesim

import "fmt"

// Cache is one set-associative, write-allocate LRU cache level. Tags
// are line (or page) numbers; no data is stored, and the cache keeps no
// counters: Hierarchy counts every event in its Counts.
//
// Tag storage is one flat array of sets*ways words: set s occupies
// tags[s*ways : (s+1)*ways], ordered MRU-first. Each way holds the
// complement ^block of its tag, so a zero word is an empty way and a
// fresh array needs no initialisation pass. No block complements to
// zero: NewCache requires lines of at least two bytes, so every block
// (even the next-line successor of the top line) is below ^uint64(0).
// Every probe is one pass over the set — no per-set slice headers or
// fill counts to read, and no allocation ever happens after
// construction.
type Cache struct {
	sets  uint64
	ways  int
	shift uint     // address bits consumed below the index (line/page)
	tags  []uint64 // flat sets*ways array of complemented tags
}

// NewCache builds a cache of size bytes with the given associativity and
// line size. size must be a multiple of ways*line, the set count must
// be a power of two, and the line at least two bytes.
func NewCache(size, line uint64, ways int) (*Cache, error) {
	if size == 0 || line < 2 || ways <= 0 {
		return nil, fmt.Errorf("cachesim: bad geometry size=%d line=%d ways=%d", size, line, ways)
	}
	if size%line != 0 {
		return nil, fmt.Errorf("cachesim: size %d not a multiple of the %d-byte line", size, line)
	}
	lines := size / line
	if lines%uint64(ways) != 0 {
		return nil, fmt.Errorf("cachesim: %d lines not divisible by %d ways", lines, ways)
	}
	sets := lines / uint64(ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cachesim: set count %d not a power of two", sets)
	}
	var shift uint
	for l := line; l > 1; l >>= 1 {
		if l&1 != 0 {
			return nil, fmt.Errorf("cachesim: line size %d not a power of two", line)
		}
		shift++
	}
	return &Cache{sets: sets, ways: ways, shift: shift, tags: make([]uint64, sets*uint64(ways))}, nil
}

// MustCache is NewCache that panics on bad geometry; for package presets.
func MustCache(size, line uint64, ways int) *Cache {
	c, err := NewCache(size, line, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// probe moves block (a line or page number) to the MRU way of its set
// and reports whether it was already resident. It is the cache's only
// operation: demand lookups and prefetch installs both go through it,
// so their content transitions are identical by construction.
//
// One pass does the whole move-to-front: each way receives the tag of
// the way before it, starting with block itself at way 0. On a hit the
// pass stops at the matching way, which the shifted tag overwrites. On
// a miss the tag carried out of the last way falls off: the LRU tag
// when the set is full, an empty (zero) word when it is not.
//
//prefix:hotpath
func (c *Cache) probe(block uint64) bool {
	base := int(block&(c.sets-1)) * c.ways
	ws := c.tags[base : base+c.ways]
	want := ^block
	carry := want
	for i, tag := range ws {
		ws[i] = carry
		if tag == want {
			return true
		}
		carry = tag
	}
	return false
}
