package report

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"testing"

	"prefix/internal/mem"
	"prefix/internal/pipeline"
	"prefix/internal/trace"
)

// refBuildHeatmapFrom is BuildHeatmapFrom as it was while the analysis
// kept one event index per heap reference, kept verbatim (renamed, with
// that field passed in as refAt) as the reference the bitmap walk is
// checked against.
func refBuildHeatmapFrom(a *trace.Analysis, refAt []int, timeBuckets, addrBuckets int) *Heatmap {
	// Hot = the smallest object set covering 90% of heap accesses, like
	// the optimizer's own selection; an absolute threshold would sweep
	// in long-tail objects and stretch the footprint meaninglessly.
	sorted := make([]*trace.Object, 0, len(a.Objects))
	for _, o := range a.Objects {
		if o.Accesses > 0 {
			sorted = append(sorted, o)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Accesses > sorted[j].Accesses })
	// Every hot object was accessed, so its address is on the reference
	// string: the hot objects' span is the hot accesses' span.
	hot := make([]bool, len(a.Objects)) // index = ObjectID-1
	var lo, hi mem.Addr
	var covered uint64
	target := a.HeapAccesses * 9 / 10
	for i, o := range sorted {
		if covered >= target {
			break
		}
		hot[o.ID-1] = true
		covered += o.Accesses
		if i == 0 || o.Addr < lo {
			lo = o.Addr
		}
		if i == 0 || o.Addr > hi {
			hi = o.Addr
		}
	}
	h := &Heatmap{TimeBuckets: timeBuckets, AddrBuckets: addrBuckets}
	if covered == 0 {
		return h
	}
	h.Footprint = uint64(hi-lo) + 1
	h.Counts = make([][]uint64, addrBuckets)
	for i := range h.Counts {
		h.Counts[i] = make([]uint64, timeBuckets)
	}
	span := h.Footprint
	events := a.Events
	for i, id := range a.Refs {
		if !hot[id-1] {
			continue
		}
		addr := a.Object(id).Addr
		ab := int(uint64(addr-lo) * uint64(addrBuckets) / span)
		if ab >= addrBuckets {
			ab = addrBuckets - 1
		}
		tb := refAt[i] * timeBuckets / events
		if tb >= timeBuckets {
			tb = timeBuckets - 1
		}
		h.Counts[ab][tb]++
	}
	return h
}

// refTimes is the reference analyzer's record of heap-reference times:
// it replays the stream's liveness through the same live-object index
// the analyzer uses and returns the index of every access event that
// lands in a live object, in trace order.
func refTimes(evs []trace.Event) []int {
	var idx mem.LiveIndex
	var at []int
	for i, ev := range evs {
		switch ev.Kind {
		case trace.KindAlloc:
			idx.Insert(ev.Addr, ev.Size, i)
		case trace.KindFree:
			idx.Remove(ev.Addr)
		case trace.KindRealloc:
			if v, ok := idx.Remove(ev.Addr); ok {
				idx.Insert(ev.Addr2, ev.Size, v)
			}
		case trace.KindAccess:
			if _, ok := idx.Find(ev.Addr); ok {
				at = append(at, i)
			}
		}
	}
	return at
}

// heatmapEvents decodes fuzz bytes into an event stream, three bytes an
// event: allocations, frees and reallocs over sixteen neighbouring
// slots, accesses that may land in a live object, beside it or in a
// freed one, and runs of up to 255 accesses to an address no object
// ever covers, so heap references sit many bitmap words apart.
func heatmapEvents(data []byte) []trace.Event {
	slot := func(b byte) mem.Addr { return 0x10000 + mem.Addr(b%16)*0x100 }
	var evs []trace.Event
	for ; len(data) >= 3; data = data[3:] {
		op, x, y := data[0], data[1], data[2]
		switch op % 8 {
		case 0, 1:
			evs = append(evs, trace.Event{Kind: trace.KindAlloc, Site: mem.SiteID(y % 3), Addr: slot(x), Size: 16 + uint64(y%8)*16})
		case 2:
			evs = append(evs, trace.Event{Kind: trace.KindFree, Addr: slot(x)})
		case 3:
			evs = append(evs, trace.Event{Kind: trace.KindRealloc, Addr: slot(x), Addr2: slot(y), Size: 16 + uint64(op/8%8)*16})
		case 4, 5, 6:
			evs = append(evs, trace.Event{Kind: trace.KindAccess, Addr: slot(x) + mem.Addr(y), Size: 8, Write: op&0x80 != 0})
		case 7:
			for n := 0; n < int(y); n++ {
				evs = append(evs, trace.Event{Kind: trace.KindAccess, Addr: 0x100, Size: 8})
			}
		}
	}
	return evs
}

// FuzzHeatmapMatchesReference: on any event stream and bucket counts,
// BuildHeatmapFrom over the analyzer's event bitmap equals
// refBuildHeatmapFrom over the reference event times, and the two
// agree on how many heap references there are.
func FuzzHeatmapMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 10, 4, 1, 3, 7, 0, 200, 5, 1, 7, 0, 2, 40, 4, 2, 5, 2, 1, 0, 6, 2, 9}, uint8(4), uint8(4))
	f.Add([]byte{0, 1, 9, 3, 1, 2, 4, 2, 3, 7, 0, 64, 4, 1, 3, 2, 2, 0}, uint8(0), uint8(0))
	f.Add([]byte{}, uint8(119), uint8(79))
	f.Add(bytes.Repeat([]byte{0, 1, 9, 4, 1, 3, 7, 0, 70, 5, 1, 8, 0, 4, 31, 4, 4, 2, 2, 1, 0}, 40), uint8(119), uint8(79))
	f.Fuzz(func(t *testing.T, data []byte, tb, ab uint8) {
		evs := heatmapEvents(data)
		timeBuckets, addrBuckets := 1+int(tb%128), 1+int(ab%128)
		an := trace.NewAnalyzer()
		an.RecordBatch(evs)
		a := an.Finish()
		at := refTimes(evs)
		if len(at) != len(a.Refs) {
			t.Fatalf("reference has %d heap references, analysis %d", len(at), len(a.Refs))
		}
		got := BuildHeatmapFrom(a, timeBuckets, addrBuckets)
		if want := refBuildHeatmapFrom(a, at, timeBuckets, addrBuckets); !reflect.DeepEqual(got, want) {
			t.Errorf("heatmap differs from the reference:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestFigure9MatchesReference: leela's Figure 9 pair at bench scale,
// analyzed as it runs through AnalyzeBaselineAndBest at one and two
// workers, gives the heatmaps refBuildHeatmapFrom draws from recordings
// of the same two runs and their reference event times.
func TestFigure9MatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates leela four times")
	}
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = true
	base, best, variant, err := pipeline.TraceBaselineAndBest("leela", opt)
	if err != nil {
		t.Fatal(err)
	}
	var want [2]*Heatmap
	for i, tr := range []*trace.Trace{base, best} {
		want[i] = refBuildHeatmapFrom(trace.Analyze(tr), refTimes(tr.Events), 120, 80)
		if want[i].Footprint == 0 {
			t.Fatalf("run %d plots no hot access", i)
		}
	}
	opt.Demand = pipeline.Demanding(pipeline.StrategyBaseline | pipeline.StrategyPreFix)
	cmp, err := pipeline.RunBenchmark("leela", opt)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Best != variant {
		t.Fatalf("best variant %s, recorded %s", cmp.Best, variant)
	}
	for _, jobs := range []int{1, 2} {
		var mu sync.Mutex
		var got [2]*Heatmap
		err := pipeline.AnalyzeBaselineAndBest(cmp, opt, jobs, func(isBest bool, a *trace.Analysis) {
			h := BuildHeatmapFrom(a, 120, 80)
			mu.Lock()
			defer mu.Unlock()
			if isBest {
				got[1] = h
			} else {
				got[0] = h
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"baseline", "best"} {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("jobs=%d: %s heatmap differs from the reference", jobs, name)
			}
		}
	}
}
