package simalloc

// This file keeps the map-based heap that Heap replaced, verbatim apart
// from its names and the refusal of requests that would pass 2^64, as
// the reference the slab heap is differential-tested against
// (heap_diff_test.go). Its policy is the specification: a change
// to Heap that makes any observable result differ from refHeap's is a
// change to the simulated allocator, not an optimization.

import (
	"fmt"
	"sort"

	"prefix/internal/mem"
)

// refBlock is an allocated or free region of the simulated heap.
// Blocks partition the heap: every byte between heapStart and brk belongs
// to exactly one block.
type refBlock struct {
	addr mem.Addr // payload address
	size uint64   // payload size (aligned)
	free bool
}

// refHeap is the simulated allocator. It is not safe for concurrent use; the
// machine layer serializes access (the simulation interleaves logical
// threads deterministically).
type refHeap struct {
	heapStart mem.Addr
	brk       mem.Addr

	// blocks maps payload address -> block, for O(1) free/realloc.
	blocks map[mem.Addr]*refBlock
	// byStart is the address-ordered list of all blocks for neighbour
	// coalescing; maps block start (addr) to the previous block's start.
	next map[mem.Addr]mem.Addr
	prev map[mem.Addr]mem.Addr
	last mem.Addr // highest block start, NilAddr when heap empty

	bins [numBins][]mem.Addr // address-ordered free lists

	stats Stats
}

// newRefHeap creates an empty heap whose break starts at base. Strategies place
// their private regions far from base so the address spaces never overlap.
func newRefHeap(base mem.Addr) *refHeap {
	if base == mem.NilAddr {
		base = 0x10000
	}
	return &refHeap{
		heapStart: base,
		brk:       base,
		blocks:    make(map[mem.Addr]*refBlock),
		next:      make(map[mem.Addr]mem.Addr),
		prev:      make(map[mem.Addr]mem.Addr),
		last:      mem.NilAddr,
	}
}

// Base returns the lowest address the heap manages.
func (h *refHeap) Base() mem.Addr { return h.heapStart }

// Brk returns the current heap break (first unowned address).
func (h *refHeap) Brk() mem.Addr { return h.brk }

// Stats returns a copy of the allocator statistics.
func (h *refHeap) Stats() Stats { return h.stats }

func refBinFor(size uint64) int {
	if size <= 512 {
		b := int(size / 16)
		if b >= 32 {
			b = 31
		}
		return b
	}
	// logarithmic bins above 512
	b := 32
	s := uint64(1024)
	for size > s && b < numBins-1 {
		s <<= 1
		b++
	}
	return b
}

// Malloc allocates size payload bytes and returns the payload address.
// A size of zero allocates MinPayload bytes, matching common mallocs that
// return distinct pointers for zero-byte requests.
func (h *refHeap) Malloc(size uint64) mem.Addr {
	h.stats.Mallocs++
	if size > ^uint64(0)-(Alignment-1) {
		return mem.NilAddr // the aligned size would wrap
	}
	size = mem.AlignUp(maxU64(size, MinPayload), Alignment)

	if a := h.takeFree(size); a != mem.NilAddr {
		b := h.blocks[a]
		h.stats.LiveBytes += b.size
		h.stats.LiveBlocks++
		return a
	}

	// Extend the break, unless the new one would pass 2^64.
	if ^uint64(0)-uint64(h.brk) < HeaderSize+size || HeaderSize+size < size {
		return mem.NilAddr
	}
	payload := h.brk + HeaderSize
	b := &refBlock{addr: payload, size: size}
	h.blocks[payload] = b
	h.linkAfter(h.last, payload)
	h.brk = payload + mem.Addr(size)
	h.stats.BrkExtends++
	h.stats.GrossBytes += size + HeaderSize
	if h.stats.GrossBytes > h.stats.PeakBytes {
		h.stats.PeakBytes = h.stats.GrossBytes
	}
	h.stats.LiveBytes += size
	h.stats.LiveBlocks++
	return payload
}

// takeFree pops the lowest-addressed free block that fits size, splitting
// it when the remainder can hold another block.
func (h *refHeap) takeFree(size uint64) mem.Addr {
	for bin := refBinFor(size); bin < numBins; bin++ {
		list := h.bins[bin]
		for i, a := range list {
			b := h.blocks[a]
			if b == nil || !b.free {
				continue // stale entry, cleaned below
			}
			if b.size < size {
				continue
			}
			// Remove from bin.
			h.bins[bin] = append(list[:i:i], list[i+1:]...)
			b.free = false
			// Split if worthwhile.
			if b.size >= size+HeaderSize+MinPayload {
				remAddr := b.addr + mem.Addr(size) + HeaderSize
				rem := &refBlock{addr: remAddr, size: b.size - size - HeaderSize, free: true}
				b.size = size
				h.blocks[remAddr] = rem
				h.linkAfter(b.addr, remAddr)
				h.pushFree(rem)
			}
			return a
		}
	}
	return mem.NilAddr
}

func (h *refHeap) pushFree(b *refBlock) {
	bin := refBinFor(b.size)
	// Keep the bin address-ordered so reuse is lowest-address-first, the
	// behaviour that interleaves recycled hot slots with cold data.
	list := h.bins[bin]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= b.addr })
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = b.addr
	h.bins[bin] = list
}

func (h *refHeap) removeFree(a mem.Addr, size uint64) {
	bin := refBinFor(size)
	list := h.bins[bin]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= a })
	if i < len(list) && list[i] == a {
		h.bins[bin] = append(list[:i:i], list[i+1:]...)
	}
}

// Free releases the block at addr. Freeing an address the heap does not
// own returns false (callers treat that as a bug in the workload).
func (h *refHeap) Free(addr mem.Addr) bool {
	b := h.blocks[addr]
	if b == nil || b.free {
		h.stats.FailedFrees++
		return false
	}
	h.stats.Frees++
	h.stats.LiveBytes -= b.size
	h.stats.LiveBlocks--
	b.free = true
	h.coalesce(b)
	return true
}

// coalesce merges b with free neighbours and files the result in a bin.
func (h *refHeap) coalesce(b *refBlock) {
	// Merge with next neighbour(s).
	for {
		na, ok := h.next[b.addr]
		if !ok {
			break
		}
		nb := h.blocks[na]
		if nb == nil || !nb.free {
			break
		}
		h.removeFree(na, nb.size)
		h.unlink(na)
		delete(h.blocks, na)
		b.size += nb.size + HeaderSize
		h.stats.Coalesces++
	}
	// Merge into previous neighbour if free.
	if pa, ok := h.prev[b.addr]; ok {
		pb := h.blocks[pa]
		if pb != nil && pb.free {
			h.removeFree(pa, pb.size)
			h.unlink(b.addr)
			delete(h.blocks, b.addr)
			pb.size += b.size + HeaderSize
			h.stats.Coalesces++
			h.pushFree(pb)
			return
		}
	}
	h.pushFree(b)
}

// Realloc resizes the block at addr to newSize, returning the (possibly
// moved) payload address and the number of payload bytes preserved. A nil
// addr behaves like Malloc.
func (h *refHeap) Realloc(addr mem.Addr, newSize uint64) (mem.Addr, uint64) {
	h.stats.Reallocs++
	if addr == mem.NilAddr {
		return h.Malloc(newSize), 0
	}
	b := h.blocks[addr]
	if b == nil || b.free {
		h.stats.FailedFrees++
		return h.Malloc(newSize), 0
	}
	if newSize > ^uint64(0)-(Alignment-1) {
		return mem.NilAddr, 0
	}
	newSize = mem.AlignUp(maxU64(newSize, MinPayload), Alignment)
	if newSize <= b.size {
		return addr, newSize // shrink in place (no block split for simplicity)
	}
	old := b.size
	na := h.Malloc(newSize)
	if na == mem.NilAddr {
		return mem.NilAddr, 0
	}
	h.Free(addr)
	return na, old
}

// SizeOf returns the payload size of the live block at addr, or 0 if addr
// is not a live payload address.
func (h *refHeap) SizeOf(addr mem.Addr) uint64 {
	b := h.blocks[addr]
	if b == nil || b.free {
		return 0
	}
	return b.size
}

// Owns reports whether addr is a payload address the heap has ever issued
// and that is currently live.
func (h *refHeap) Owns(addr mem.Addr) bool {
	b := h.blocks[addr]
	return b != nil && !b.free
}

// linkAfter inserts block na after pa in address order (pa == NilAddr
// appends at the very start when the heap is empty).
func (h *refHeap) linkAfter(pa, na mem.Addr) {
	if pa == mem.NilAddr {
		h.last = na
		return
	}
	if n, ok := h.next[pa]; ok {
		h.next[na] = n
		h.prev[n] = na
	}
	h.next[pa] = na
	h.prev[na] = pa
	if pa == h.last {
		h.last = na
	}
}

func (h *refHeap) unlink(a mem.Addr) {
	p, hasP := h.prev[a]
	n, hasN := h.next[a]
	if hasP && hasN {
		h.next[p] = n
		h.prev[n] = p
	} else if hasP {
		delete(h.next, p)
		h.last = p
	} else if hasN {
		delete(h.prev, n)
	}
	delete(h.prev, a)
	delete(h.next, a)
	if h.last == a {
		if hasP {
			h.last = p
		} else {
			h.last = mem.NilAddr
		}
	}
}

// CheckInvariants validates internal consistency; tests call it after
// randomized operation sequences. It returns an error describing the first
// violation found.
func (h *refHeap) CheckInvariants() error {
	// Walk address order, ensure blocks tile [heapStart, brk) exactly.
	var walk []mem.Addr
	for a := range h.blocks {
		walk = append(walk, a)
	}
	sort.Slice(walk, func(i, j int) bool { return walk[i] < walk[j] })
	cursor := h.heapStart
	var live, liveBlocks uint64
	for _, a := range walk {
		b := h.blocks[a]
		if a != cursor+HeaderSize {
			return fmt.Errorf("simalloc: block %v does not start at cursor %v+header", a, cursor)
		}
		if !mem.IsAligned(uint64(a), Alignment) {
			return fmt.Errorf("simalloc: block %v misaligned", a)
		}
		if !b.free {
			live += b.size
			liveBlocks++
		}
		cursor = a + mem.Addr(b.size)
	}
	if cursor != h.brk {
		return fmt.Errorf("simalloc: blocks end at %v, brk is %v", cursor, h.brk)
	}
	if live != h.stats.LiveBytes {
		return fmt.Errorf("simalloc: live bytes %d != stats %d", live, h.stats.LiveBytes)
	}
	if liveBlocks != h.stats.LiveBlocks {
		return fmt.Errorf("simalloc: live blocks %d != stats %d", liveBlocks, h.stats.LiveBlocks)
	}
	// No free block may appear twice across bins, and all bin entries must
	// reference live free blocks.
	seen := make(map[mem.Addr]bool)
	for bin, list := range h.bins {
		for _, a := range list {
			b := h.blocks[a]
			if b == nil {
				return fmt.Errorf("simalloc: bin %d holds deleted block %v", bin, a)
			}
			if !b.free {
				return fmt.Errorf("simalloc: bin %d holds allocated block %v", bin, a)
			}
			if seen[a] {
				return fmt.Errorf("simalloc: block %v filed twice", a)
			}
			seen[a] = true
		}
	}
	return nil
}
