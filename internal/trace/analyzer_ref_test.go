package trace

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"prefix/internal/mem"
)

// refAnalyzer is the Analyzer as it was before its site and object state
// moved into slices: four site maps updated on every allocation and one
// heap allocation per object. It is kept verbatim (renamed, and without
// the recorder plumbing, which did not change) as the reference the
// dense Analyzer is checked against. It also keeps the event time of
// each heap reference as it did before they became Analysis.RefEvents:
// one event index per reference, in refAt.
type refAnalyzer struct {
	a *Analysis
	// refAt[i] is the event index of a.Refs[i].
	refAt []int
	// idx maps each live object's address interval to its position in
	// Analysis.Objects; accesses land anywhere inside [base, base+size),
	// so it answers containment queries (mem.LiveIndex, page-keyed).
	idx      mem.LiveIndex
	live     uint64
	siteLive map[mem.SiteID]uint64
	i        int // event index == logical time
}

// newRefAnalyzer returns an empty incremental analyzer.
func newRefAnalyzer() *refAnalyzer {
	return &refAnalyzer{
		a: &Analysis{
			SiteAllocs:  make(map[mem.SiteID]uint64),
			SiteObjects: make(map[mem.SiteID][]mem.ObjectID),
			SiteMaxLive: make(map[mem.SiteID]uint64),
		},
		siteLive: make(map[mem.SiteID]uint64),
	}
}

// Feed processes the next event in trace order.
func (an *refAnalyzer) Feed(ev Event) {
	a := an.a
	i := an.i
	an.i++
	switch ev.Kind {
	case KindAlloc:
		a.SiteAllocs[ev.Site]++
		obj := &Object{
			ID:        mem.ObjectID(len(a.Objects) + 1),
			Site:      ev.Site,
			Stack:     ev.Stack,
			Instance:  mem.Instance(a.SiteAllocs[ev.Site]),
			Size:      ev.Size,
			FinalSize: ev.Size,
			Addr:      ev.Addr,
			AllocAt:   i,
			FreeAt:    -1,
		}
		a.Objects = append(a.Objects, obj)
		a.SiteObjects[ev.Site] = append(a.SiteObjects[ev.Site], obj.ID)
		an.idx.Insert(ev.Addr, ev.Size, len(a.Objects)-1)
		an.live++
		an.siteLive[ev.Site]++
		if an.live > a.MaxLive {
			a.MaxLive = an.live
		}
		if an.siteLive[ev.Site] > a.SiteMaxLive[ev.Site] {
			a.SiteMaxLive[ev.Site] = an.siteLive[ev.Site]
		}
	case KindFree:
		if v, ok := an.idx.Remove(ev.Addr); ok {
			obj := a.Objects[v]
			obj.FreeAt = i
			an.live--
			an.siteLive[obj.Site]--
		}
	case KindRealloc:
		if v, ok := an.idx.Remove(ev.Addr); ok {
			obj := a.Objects[v]
			obj.FinalSize = ev.Size
			obj.Addr = ev.Addr2
			an.idx.Insert(ev.Addr2, ev.Size, v)
		}
	case KindAccess:
		a.TotalAccesses++
		if v, ok := an.idx.Find(ev.Addr); ok {
			obj := a.Objects[v]
			a.HeapAccesses++
			obj.Accesses++
			if ev.Write {
				obj.Writes++
			} else {
				obj.Reads++
			}
			a.Refs = append(a.Refs, obj.ID)
			an.refAt = append(an.refAt, i)
		}
	}
}

// Reserve is a capacity hint: it grows Refs and refAt so that accesses
// heap references in all fit without reallocating. A run's heap
// references are at most its access events, so an access count already
// measured for the same run is a safe bound. The analysis is identical
// with or without the hint.
func (an *refAnalyzer) Reserve(accesses uint64) {
	a := an.a
	have := uint64(len(a.Refs))
	if accesses <= have || accesses > math.MaxInt {
		return
	}
	n := int(accesses - have)
	a.Refs = slices.Grow(a.Refs, n)
	an.refAt = slices.Grow(an.refAt, n)
}

// SetInstr records the traced run's dynamic instruction count.
func (an *refAnalyzer) SetInstr(n uint64) { an.a.Instr = n }

// Finish returns the completed analysis. The analyzer must not be fed
// after.
func (an *refAnalyzer) Finish() *Analysis {
	a := an.a
	a.Events = an.i
	if len(a.Refs) == 0 {
		// An unused Reserve leaves empty non-nil slices; an unreserved
		// analysis without heap references has nil ones.
		a.Refs, an.refAt = nil, nil
	}
	return a
}

// refEvents is the event bitmap of the reference times refAt in an
// analysis of the given event count: ⌈events/64⌉ words with bit e set
// for every e in refAt, or nil when there are no references.
func refEvents(refAt []int, events int) []uint64 {
	if len(refAt) == 0 {
		return nil
	}
	bm := make([]uint64, (events+63)/64)
	for _, e := range refAt {
		bm[e/64] |= 1 << (e % 64)
	}
	return bm
}

// checkRefEvents fails t unless got's reference bitmap is the one of
// the reference times refAt, and EachRef walks Refs beside them.
func checkRefEvents(t *testing.T, got *Analysis, refAt []int) {
	t.Helper()
	if want := refEvents(refAt, got.Events); !reflect.DeepEqual(got.RefEvents, want) {
		t.Errorf("RefEvents = %x, want the bits of %v (%x)", got.RefEvents, refAt, want)
	}
	i := 0
	got.EachRef(func(id mem.ObjectID, event int) {
		if i >= len(refAt) || id != got.Refs[i] || event != refAt[i] {
			t.Fatalf("EachRef call %d = (%d, %d), want Refs %v at %v", i, id, event, got.Refs, refAt)
		}
		i++
	})
	if i != len(refAt) {
		t.Errorf("EachRef made %d calls, want %d", i, len(refAt))
	}
}

// FuzzAnalyzerMatchesReference: the dense Analyzer and refAnalyzer, fed
// the same fuzzEvents stream (unknown frees, realloc chains, allocations
// over live and freed addresses), produce DeepEqual analyses apart from
// the reference times, and the set bits of RefEvents, in order, are the
// reference's event indices. spread multiplies the stream's three site
// ids apart, so sites also take large and zero ids. Streams past
// objectSlab allocations cross slab boundaries.
func FuzzAnalyzerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 10, 4, 1, 3, 2, 1, 0, 0, 1, 20, 5, 1, 7}, uint32(0))
	f.Add([]byte{0, 2, 40, 3, 2, 5, 4, 5, 9, 3, 5, 2, 6, 2, 1, 2, 9, 1}, uint32(1))
	f.Add([]byte{1, 0, 0, 2, 0, 1, 2, 0, 0, 5, 0, 3, 8, 3, 3}, uint32(0x8000_0001))
	f.Add([]byte{0, 1, 2, 0, 2, 2, 0, 3, 2, 4, 1, 4, 4, 2, 4, 4, 3, 4, 2, 1, 0, 2, 2, 0}, uint32(3))
	f.Add([]byte{}, uint32(7))
	// Alloc, access, realloc, access, free, alloc over neighbouring
	// slots: two objects a round, so the rounds fill two slabs and more.
	f.Add(bytes.Repeat([]byte{0, 1, 9, 4, 1, 3, 3, 1, 2, 6, 2, 1, 2, 2, 0, 1, 3, 0}, objectSlab+5), uint32(5))
	// One heap reference, then two bitmap words of unknown frees.
	f.Add(append([]byte{0, 1, 10, 4, 1, 3}, bytes.Repeat([]byte{2, 9, 1}, 130)...), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, spread uint32) {
		evs := fuzzEvents(data)
		an, ref := NewAnalyzer(), newRefAnalyzer()
		for i := range evs {
			if evs[i].Kind == KindAlloc && spread != 0 {
				evs[i].Site *= mem.SiteID(spread)
			}
			an.Feed(evs[i])
			ref.Feed(evs[i])
		}
		an.SetInstr(uint64(len(data)))
		ref.SetInstr(uint64(len(data)))
		got, want := an.Finish(), ref.Finish()
		checkRefEvents(t, got, ref.refAt)
		rest := *got
		rest.RefEvents = nil
		if !reflect.DeepEqual(&rest, want) {
			t.Errorf("analysis differs from the reference:\n got %+v\nwant %+v", &rest, want)
		}
	})
}
