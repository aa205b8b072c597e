package trace

import (
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// healthEvents builds a health-shaped event stream: live objects grow to
// live, then churn steps each free a random live object (so frees come in
// random address order), allocate a replacement into the most recently
// freed 128-byte slot, and make three interior accesses to random live
// objects. Every allocation is also touched three times when made.
func healthEvents(live, churn int, seed uint64) []Event {
	rng := xrand.New(seed)
	type obj struct {
		addr mem.Addr
		size uint64
	}
	var objs []obj
	var free []mem.Addr
	next := mem.Addr(0x10_0000)
	var evs []Event
	access := func(o obj) {
		evs = append(evs, Event{Kind: KindAccess, Addr: o.addr + mem.Addr(rng.Uint64n(o.size)), Size: 8})
	}
	alloc := func() {
		addr := next
		if n := len(free); n > 0 {
			addr, free = free[n-1], free[:n-1]
		} else {
			next += 128
		}
		o := obj{addr, 16 + rng.Uint64n(113)}
		evs = append(evs, Event{Kind: KindAlloc, Site: mem.SiteID(rng.Intn(4) + 1), Addr: o.addr, Size: o.size})
		objs = append(objs, o)
		for k := 0; k < 3; k++ {
			access(o)
		}
	}
	for len(objs) < live {
		alloc()
	}
	for i := 0; i < churn; i++ {
		j := rng.Intn(len(objs))
		evs = append(evs, Event{Kind: KindFree, Addr: objs[j].addr})
		free = append(free, objs[j].addr)
		objs[j] = objs[len(objs)-1]
		objs = objs[:len(objs)-1]
		alloc()
		for k := 0; k < 3; k++ {
			access(objs[rng.Intn(len(objs))])
		}
	}
	return evs
}

// BenchmarkAnalyzerFeed feeds a health-shaped stream (about 24k objects
// live, random-order frees) through a fresh Analyzer per iteration.
func BenchmarkAnalyzerFeed(b *testing.B) {
	evs := healthEvents(24000, 24000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := NewAnalyzer()
		for _, ev := range evs {
			an.Feed(ev)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}
