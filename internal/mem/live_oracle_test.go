package mem

import "sort"

// intervalIndex is the trace analyzer's original live-object index, kept
// as the oracle LiveIndex is checked against: a sorted slice of interval
// starts plus a map, so find is O(log n) while insert and remove shift
// the slice (O(live set)). Handles replace its *Object values; it is
// otherwise unchanged.
type intervalIndex struct {
	starts []Addr
	items  map[Addr]*interval
}

type interval struct {
	size uint64
	v    int
}

func newIntervalIndex() *intervalIndex {
	return &intervalIndex{items: make(map[Addr]*interval)}
}

func (x *intervalIndex) insert(addr Addr, size uint64, v int) {
	if size == 0 {
		size = 1
	}
	if _, dup := x.items[addr]; !dup {
		i := sort.Search(len(x.starts), func(i int) bool { return x.starts[i] >= addr })
		x.starts = append(x.starts, 0)
		copy(x.starts[i+1:], x.starts[i:])
		x.starts[i] = addr
	}
	x.items[addr] = &interval{size: size, v: v}
}

func (x *intervalIndex) remove(addr Addr) (int, bool) {
	it := x.items[addr]
	if it == nil {
		return 0, false
	}
	delete(x.items, addr)
	i := sort.Search(len(x.starts), func(i int) bool { return x.starts[i] >= addr })
	if i < len(x.starts) && x.starts[i] == addr {
		x.starts = append(x.starts[:i], x.starts[i+1:]...)
	}
	return it.v, true
}

// find returns the live interval that contains addr.
func (x *intervalIndex) find(addr Addr) (int, bool) {
	// Fast path: addr is an interval base (common for small objects).
	if it := x.items[addr]; it != nil {
		return it.v, true
	}
	i := sort.Search(len(x.starts), func(i int) bool { return x.starts[i] > addr })
	if i == 0 {
		return 0, false
	}
	start := x.starts[i-1]
	it := x.items[start]
	if it != nil && uint64(addr-start) < it.size {
		return it.v, true
	}
	return 0, false
}

// len reports the number of live intervals.
func (x *intervalIndex) len() int { return len(x.starts) }
