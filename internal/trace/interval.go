package trace

import (
	"sort"

	"prefix/internal/mem"
)

// intervalIndex maps live, non-overlapping address intervals to objects.
// It keeps a sorted slice of interval starts: find is O(log n); insert and
// remove shift the slice, which is O(live set). Allocation events are far
// rarer than accesses, but with tens of thousands of objects live the
// shifting is not negligible: remove alone measured 6.5% of the
// mine-heavy benchmark and 9% of stream-capture (ROADMAP item 4).
type intervalIndex struct {
	starts []mem.Addr
	items  map[mem.Addr]*interval
}

type interval struct {
	size uint64
	obj  *Object
}

func newIntervalIndex() *intervalIndex {
	return &intervalIndex{items: make(map[mem.Addr]*interval)}
}

func (x *intervalIndex) insert(addr mem.Addr, size uint64, obj *Object) {
	if size == 0 {
		size = 1
	}
	if _, dup := x.items[addr]; !dup {
		i := sort.Search(len(x.starts), func(i int) bool { return x.starts[i] >= addr })
		x.starts = append(x.starts, 0)
		copy(x.starts[i+1:], x.starts[i:])
		x.starts[i] = addr
	}
	x.items[addr] = &interval{size: size, obj: obj}
}

func (x *intervalIndex) remove(addr mem.Addr) *Object {
	it := x.items[addr]
	if it == nil {
		return nil
	}
	delete(x.items, addr)
	i := sort.Search(len(x.starts), func(i int) bool { return x.starts[i] >= addr })
	if i < len(x.starts) && x.starts[i] == addr {
		x.starts = append(x.starts[:i], x.starts[i+1:]...)
	}
	return it.obj
}

// find returns the live object whose interval contains addr, or nil.
func (x *intervalIndex) find(addr mem.Addr) *Object {
	// Fast path: addr is an interval base (common for small objects).
	if it := x.items[addr]; it != nil {
		return it.obj
	}
	i := sort.Search(len(x.starts), func(i int) bool { return x.starts[i] > addr })
	if i == 0 {
		return nil
	}
	start := x.starts[i-1]
	it := x.items[start]
	if it != nil && uint64(addr-start) < it.size {
		return it.obj
	}
	return nil
}

// len reports the number of live intervals.
func (x *intervalIndex) len() int { return len(x.starts) }
