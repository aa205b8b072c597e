package report

import (
	"fmt"
	"io"
	"sort"

	"prefix/internal/binrewrite"
	"prefix/internal/hds"
	"prefix/internal/layout"
	"prefix/internal/mem"
	"prefix/internal/pipeline"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// Figure2 renders a layout-determination walk-through in the style of the
// paper's cc1 example: the OHDS list, the reconstituted RHDS, and the
// final placement order.
func Figure2(w io.Writer, ohds []hds.Stream, rec *layout.Reconstitution) {
	fmt.Fprintln(w, "Figure 2: Layout determination (OHDS -> RHDS)")
	fmt.Fprintln(w, "OHDS (descending memory references):")
	for i, s := range ohds {
		fmt.Fprintf(w, "  %2d. %v  (refs=%d)\n", i+1, idList(s.Objects), s.Heat)
	}
	fmt.Fprintln(w, "RHDS (reconstituted, exploitable):")
	for i, s := range rec.RHDS {
		fmt.Fprintf(w, "  %2d. %v\n", i+1, idList(s.Objects))
	}
	if len(rec.Singletons) > 0 {
		fmt.Fprintf(w, "Singletons (end of region): %v\n", idList(rec.Singletons))
	}
	fmt.Fprintf(w, "Actions: %d unchanged, %d merged, %d split, %d dropped\n",
		rec.Unchanged, rec.Merged, rec.Split, rec.Dropped)
	fmt.Fprintf(w, "Final layout order: %v\n", idList(rec.Order()))
}

// Figure2Offsets prints one region-placement row for the layoutviz
// example.
func Figure2Offsets(w io.Writer, id mem.ObjectID, offset, size uint64) {
	fmt.Fprintf(w, "  %-8v offset %5d  size %4d\n", id, offset, size)
}

func idList(ids []mem.ObjectID) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// Heatmap is the Figure 9 data: access counts bucketed by time (columns)
// and relative heap offset (rows), plus the hot footprint (the address
// span the hot accesses cover).
type Heatmap struct {
	TimeBuckets int
	AddrBuckets int
	Counts      [][]uint64 // [addrBucket][timeBucket]
	Footprint   uint64     // bytes spanned by hot-object accesses
}

// BuildHeatmap computes a heatmap from an evaluation trace; it is
// BuildHeatmapFrom over the trace's analysis.
func BuildHeatmap(tr *trace.Trace, timeBuckets, addrBuckets int) *Heatmap {
	return BuildHeatmapFrom(trace.Analyze(tr), timeBuckets, addrBuckets)
}

// BuildHeatmapFrom computes a heatmap from an evaluation run's analysis:
// only accesses to hot objects are plotted (the paper plots "the same hot
// and interesting objects" in both binaries), and addresses are
// normalized to the lowest hot address. It reads only the analysis'
// objects and its reference string with their event times.
func BuildHeatmapFrom(a *trace.Analysis, timeBuckets, addrBuckets int) *Heatmap {
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
	a.EachRef(func(id mem.ObjectID, event int) {
		if !hot[id-1] {
			return
		}
		addr := a.Object(id).Addr
		ab := int(uint64(addr-lo) * uint64(addrBuckets) / span)
		if ab >= addrBuckets {
			ab = addrBuckets - 1
		}
		tb := event * timeBuckets / events
		if tb >= timeBuckets {
			tb = timeBuckets - 1
		}
		h.Counts[ab][tb]++
	})
	return h
}

// WriteCSV emits the heatmap as addr_bucket,time_bucket,count rows.
func (h *Heatmap) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "addr_bucket,time_bucket,count"); err != nil {
		return err
	}
	for ab := range h.Counts {
		for tb, n := range h.Counts[ab] {
			if n == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%d,%d,%d\n", ab, tb, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// Figure9 prints the heatmap summary (footprints) and optionally the two
// CSVs to the given writers (nil skips the CSV).
func Figure9(w io.Writer, benchmark string, base, opt *Heatmap) {
	fmt.Fprintf(w, "Figure 9: Data access heatmap footprints (%s)\n", benchmark)
	fmt.Fprintf(w, "  baseline hot-access footprint: %s\n", Bytes(base.Footprint))
	fmt.Fprintf(w, "  PreFix   hot-access footprint: %s\n", Bytes(opt.Footprint))
	if opt.Footprint > 0 {
		fmt.Fprintf(w, "  reduction: %.1fx\n", float64(base.Footprint)/float64(opt.Footprint))
	}
}

// Figure14 prints the binary-size accounting.
func Figure14(w io.Writer, cmps []*pipeline.Comparison) error {
	if err := need(cmps, pipeline.StrategyPreFix); err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 14: Binary Sizes: Baseline -> Best PreFix")
	tw := newTab(w)
	fmt.Fprintln(tw, "benchmark\tbaseline\toptimized\tgrowth\tgrowth excl .bolt.orig.text")
	for _, c := range cmps {
		spec, err := workloads.Get(c.Benchmark)
		if err != nil {
			return err
		}
		r := binrewrite.Rewrite(spec.Binary, c.Plans[c.Best])
		fmt.Fprintf(tw, "%s\t%s\t%s\t%+.2f%%\t%+.2f%%\n",
			c.Benchmark, Bytes(r.BaseBytes), Bytes(r.OptBytes()), r.GrowthPct(), r.InstrumentedGrowthPct())
	}
	return tw.Flush()
}
