package mem

import "sort"

// spillPages is the most pages an interval may touch and still be
// clipped into the page table. Longer intervals go to the spill tier, so
// no operation does work proportional to an interval's size: trace files
// are untrusted, and a single malloc can claim a terabyte.
const spillPages = 16

// LiveIndex maps live address intervals to int handles and answers
// "which live interval holds this address?". It is the one address →
// object table of the reproduction: the trace analyzer stores each
// object's position in its object list, the machine's attribution table
// stores the owning site's cell index.
//
// An interval [addr, addr+size) is clipped at the top of the address
// space: it never wraps to low addresses, and one that ends exactly at
// 2^64 contains its last byte. A size of 0 counts as 1.
//
// Layout: each interval touching at most spillPages pages is clipped to
// every page it touches, and the clipped spans of one page are kept in a
// slice sorted by start. Insert and Remove touch only the interval's own
// pages (found through ranges, which maps each live start to its
// extent); Find is one map lookup and a binary search within a page.
// Longer intervals live in one sorted spill slice that Find consults
// only when the page holds no containing span.
//
// Live intervals of a well-formed trace are disjoint. When they overlap,
// Find returns some containing interval — the same one for the same
// sequence of operations — and reports a miss only when none contains
// the address.
//
// The zero value is an empty index ready to use.
type LiveIndex struct {
	pages  map[uint64][]span
	ranges map[Addr]liveRange
	spill  []spillRange
}

// span is one interval clipped to one page, as offsets [lo, hi) within
// the page. reach is the largest hi of this span and every span before
// it in the page's slice: a backwards scan for a containing span stops
// once reach no longer passes the address. With disjoint intervals reach
// equals hi and the scan looks at one span.
type span struct {
	lo, hi, reach uint16
	v             int
}

// liveRange is a live interval's last byte and handle, so Remove (which
// sees only the start) can find the interval's pages.
type liveRange struct {
	last Addr
	v    int
}

// spillRange is one interval of the spill tier. reach is the largest
// last byte of this range and every range before it, as in span.
type spillRange struct {
	start, last, reach Addr
	v                  int
}

// Len reports the number of live intervals.
func (x *LiveIndex) Len() int { return len(x.ranges) }

// extent returns an interval's last byte (clipped at the top of the
// address space) and its first and last page numbers.
func extent(addr Addr, size uint64) (last Addr, first, end uint64) {
	if size == 0 {
		size = 1
	}
	last = addr + Addr(size-1)
	if last < addr {
		last = ^Addr(0)
	}
	return last, uint64(addr) >> PageShift, uint64(last) >> PageShift
}

// clip returns the interval [addr, last]'s span on page p, which it
// touches.
func clip(p uint64, addr, last Addr, v int) span {
	s := span{lo: 0, hi: PageSize, v: v}
	if uint64(addr)>>PageShift == p {
		s.lo = uint16(addr & (PageSize - 1))
	}
	if uint64(last)>>PageShift == p {
		s.hi = uint16(last&(PageSize-1)) + 1
	}
	return s
}

// Insert makes [addr, addr+size) live with handle v. An interval already
// live at addr is replaced.
func (x *LiveIndex) Insert(addr Addr, size uint64, v int) {
	if x.ranges == nil {
		x.ranges = make(map[Addr]liveRange)
		x.pages = make(map[uint64][]span)
	} else if _, live := x.ranges[addr]; live {
		x.Remove(addr)
	}
	last, first, end := extent(addr, size)
	x.ranges[addr] = liveRange{last: last, v: v}
	if end-first >= spillPages {
		i := sort.Search(len(x.spill), func(i int) bool { return x.spill[i].start > addr })
		x.spill = append(x.spill, spillRange{})
		copy(x.spill[i+1:], x.spill[i:])
		x.spill[i] = spillRange{start: addr, last: last, v: v}
		x.fixSpillReach(i)
		return
	}
	for p := first; p <= end; p++ {
		s := clip(p, addr, last, v)
		spans := x.pages[p]
		// After every span with the same start, so equal starts keep
		// insertion order.
		i := sort.Search(len(spans), func(i int) bool { return spans[i].lo > s.lo })
		spans = append(spans, span{})
		copy(spans[i+1:], spans[i:])
		spans[i] = s
		fixReach(spans, i)
		x.pages[p] = spans
	}
}

// Remove drops the interval that starts exactly at addr and returns its
// handle, or (0, false) when no live interval starts there.
func (x *LiveIndex) Remove(addr Addr) (v int, ok bool) {
	r, ok := x.ranges[addr]
	if !ok {
		return 0, false
	}
	delete(x.ranges, addr)
	first, end := uint64(addr)>>PageShift, uint64(r.last)>>PageShift
	if end-first >= spillPages {
		i := sort.Search(len(x.spill), func(i int) bool { return x.spill[i].start >= addr })
		x.spill = append(x.spill[:i], x.spill[i+1:]...)
		x.fixSpillReach(i)
		return r.v, true
	}
	for p := first; p <= end; p++ {
		s := clip(p, addr, r.last, r.v)
		spans := x.pages[p]
		// Insert put s on this page. Spans equal in every field are
		// interchangeable, so removing the first match leaves the same
		// page whichever interval it came from.
		i := sort.Search(len(spans), func(i int) bool { return spans[i].lo >= s.lo })
		for spans[i].hi != s.hi || spans[i].v != s.v {
			i++
		}
		if len(spans) == 1 {
			delete(x.pages, p)
			continue
		}
		spans = append(spans[:i], spans[i+1:]...)
		fixReach(spans, i)
		x.pages[p] = spans
	}
	return r.v, true
}

// fixReach recomputes reach from index i to the end of spans.
func fixReach(spans []span, i int) {
	var reach uint16
	if i > 0 {
		reach = spans[i-1].reach
	}
	for ; i < len(spans); i++ {
		if spans[i].hi > reach {
			reach = spans[i].hi
		}
		spans[i].reach = reach
	}
}

// fixSpillReach recomputes the spill tier's reach from index i on.
func (x *LiveIndex) fixSpillReach(i int) {
	var reach Addr
	if i > 0 {
		reach = x.spill[i-1].reach
	}
	for ; i < len(x.spill); i++ {
		if x.spill[i].last > reach {
			reach = x.spill[i].last
		}
		x.spill[i].reach = reach
	}
}

// Find returns the handle of the live interval containing addr, or
// (0, false) when none does.
//
//prefix:hotpath
func (x *LiveIndex) Find(addr Addr) (v int, ok bool) {
	if spans := x.pages[uint64(addr)>>PageShift]; len(spans) > 0 {
		off := uint16(addr & (PageSize - 1))
		lo, hi := 0, len(spans)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if spans[mid].lo <= off {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for i := lo - 1; i >= 0 && spans[i].reach > off; i-- {
			if off < spans[i].hi {
				return spans[i].v, true
			}
		}
	}
	if len(x.spill) == 0 {
		return 0, false
	}
	return x.findSpill(addr)
}

// findSpill is Find's search of the spill tier.
//
//prefix:hotpath
func (x *LiveIndex) findSpill(addr Addr) (v int, ok bool) {
	lo, hi := 0, len(x.spill)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.spill[mid].start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo - 1; i >= 0 && x.spill[i].reach >= addr; i-- {
		if addr <= x.spill[i].last {
			return x.spill[i].v, true
		}
	}
	return 0, false
}
