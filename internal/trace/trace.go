// Package trace defines the memory-trace model produced by profiling runs
// and consumed by every analysis in the PreFix pipeline (paper Figure 8:
// "Alloc & Access Trace").
//
// A trace is an ordered stream of events: allocations (with static malloc
// site and call-stack signature), frees, reallocs, and memory accesses.
// Event index doubles as logical time. The analyzer reconstructs a table of
// dynamic objects from the stream — address reuse by the allocator is
// resolved by liveness, so every dynamic object receives a unique ObjectID
// in allocation order, which is exactly the paper's notion of identity
// ("static malloc site + dynamic allocation instance").
package trace

import (
	"math"
	"slices"
	"time"

	"prefix/internal/mem"
)

// Kind discriminates trace events.
type Kind uint8

const (
	KindAlloc Kind = iota + 1
	KindFree
	KindRealloc
	KindAccess
)

// Event is one trace record. Field use depends on Kind:
//
//	Alloc:   Site, Stack, Addr, Size
//	Free:    Addr
//	Realloc: Addr (old), Addr2 (new), Size (new size)
//	Access:  Addr, Size (access width), Write
type Event struct {
	Kind  Kind
	Site  mem.SiteID
	Stack mem.StackSig
	Addr  mem.Addr
	Addr2 mem.Addr
	Size  uint64
	Write bool
}

// Trace is an in-memory event stream.
type Trace struct {
	Events []Event
	// Instr is the total dynamic instruction count of the traced run
	// (memory accesses + compute), used for Table 6 style accounting.
	Instr uint64
}

// Recorder accumulates events in memory during a profiling run. The
// machine layer feeds it batches; analyses read the resulting Trace.
type Recorder struct {
	tr Trace
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// RecordBatch implements EventRecorder: one bulk append of the batch
// into the in-memory event slice.
func (r *Recorder) RecordBatch(evs []Event) {
	r.tr.Events = append(r.tr.Events, evs...)
}

// AddInstr implements EventRecorder: instruction counts accumulate.
func (r *Recorder) AddInstr(n uint64) { r.tr.Instr += n }

// Trace returns the recorded trace. The recorder must not be used after.
func (r *Recorder) Trace() *Trace { return &r.tr }

// Stats reports what the recorder captured. The in-memory recorder
// buffers everything, so the peak equals the event count and nothing is
// ever spilled.
func (r *Recorder) Stats() RecorderStats {
	return RecorderStats{
		Events:             uint64(len(r.tr.Events)),
		PeakBufferedEvents: len(r.tr.Events),
	}
}

// Object describes one dynamic heap object reconstructed from a trace.
type Object struct {
	ID       mem.ObjectID
	Site     mem.SiteID
	Stack    mem.StackSig
	Instance mem.Instance // n-th allocation of Site (1-based)
	Size     uint64       // size at allocation (final size after reallocs in FinalSize)
	Addr     mem.Addr     // address at allocation
	AllocAt  int          // event index of allocation
	FreeAt   int          // event index of free, -1 if never freed
	Accesses uint64       // number of access events landing in the object
	Reads    uint64
	Writes   uint64
	// FinalSize is the size after the last realloc (== Size if none).
	FinalSize uint64
}

// Analysis is the result of reconstructing objects from a trace.
type Analysis struct {
	// Events is the total number of trace events analyzed.
	Events  int
	Objects []*Object // index = ObjectID-1
	// Refs is the object-granular reference string: for every access event
	// that hit a live heap object, the ObjectID, in trace order. Accesses
	// to non-heap addresses are dropped.
	Refs []mem.ObjectID
	// RefAt[i] is the event index of Refs[i] (for time-bucketed heatmaps).
	RefAt []int
	// HeapAccesses / TotalAccesses split access events into those that hit
	// a live object and all of them.
	HeapAccesses  uint64
	TotalAccesses uint64
	// SiteAllocs counts dynamic allocations per site.
	SiteAllocs map[mem.SiteID]uint64
	// SiteObjects lists, per site, the ObjectIDs it allocated in order —
	// index i is the object with Instance i+1.
	SiteObjects map[mem.SiteID][]mem.ObjectID
	// MaxLive and per-site peaks of simultaneously-live objects (for the
	// recycling planner).
	MaxLive     uint64
	SiteMaxLive map[mem.SiteID]uint64
	Instr       uint64
}

// Analyzer reconstructs objects and the reference string incrementally:
// Feed it every event in trace order, then Finish. Analyze and
// AnalyzeSource are both built on it, so the in-memory and streaming
// paths produce identical results by construction.
//
// An Analyzer is also a trace recorder (EventRecorder): attached to a
// machine, it analyzes the run while it executes, so the trace is never
// materialized. Every delivered event goes through Feed, the same path
// Analyze takes.
type Analyzer struct {
	a *Analysis
	// idx maps each live object's address interval to its position in
	// Analysis.Objects; accesses land anywhere inside [base, base+size),
	// so it answers containment queries (mem.LiveIndex, page-keyed).
	idx      mem.LiveIndex
	live     uint64
	siteLive map[mem.SiteID]uint64
	i        int // event index == logical time

	// peak is the largest batch delivered through RecordBatch.
	peak int
	// now, when set, times every delivery; feedNanos accumulates it.
	now       func() time.Time
	feedNanos int64
}

// NewAnalyzer returns an empty incremental analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		a: &Analysis{
			SiteAllocs:  make(map[mem.SiteID]uint64),
			SiteObjects: make(map[mem.SiteID][]mem.ObjectID),
			SiteMaxLive: make(map[mem.SiteID]uint64),
		},
		siteLive: make(map[mem.SiteID]uint64),
	}
}

// Feed processes the next event in trace order.
func (an *Analyzer) Feed(ev Event) {
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
			a.RefAt = append(a.RefAt, i)
		}
	}
}

// Reserve is a capacity hint: it grows Refs and RefAt so that accesses
// heap references in all fit without reallocating. A run's heap
// references are at most its access events, so an access count already
// measured for the same run is a safe bound. The analysis is identical
// with or without the hint.
func (an *Analyzer) Reserve(accesses uint64) {
	a := an.a
	have := uint64(len(a.Refs))
	if accesses <= have || accesses > math.MaxInt {
		return
	}
	n := int(accesses - have)
	a.Refs = slices.Grow(a.Refs, n)
	a.RefAt = slices.Grow(a.RefAt, n)
}

// SetInstr records the traced run's dynamic instruction count.
func (an *Analyzer) SetInstr(n uint64) { an.a.Instr = n }

// RecordBatch implements EventRecorder: the batch is fed in order and
// not retained.
func (an *Analyzer) RecordBatch(evs []Event) {
	if len(evs) > an.peak {
		an.peak = len(evs)
	}
	var t0 time.Time
	if an.now != nil {
		t0 = an.now()
	}
	for i := range evs {
		an.Feed(evs[i])
	}
	if an.now != nil {
		an.feedNanos += an.now().Sub(t0).Nanoseconds()
	}
}

// AddInstr implements EventRecorder: instruction counts accumulate, so
// every machine of a group can report its own.
func (an *Analyzer) AddInstr(n uint64) { an.a.Instr += n }

// Stats implements the recorder statistics: every event fed so far,
// no spilled chunks, and the largest batch delivered to it — the only
// events an analyzing recorder ever holds.
func (an *Analyzer) Stats() RecorderStats {
	return RecorderStats{Events: uint64(an.i), PeakBufferedEvents: an.peak}
}

// SetClock makes the analyzer time its own work: one clock pair per
// delivered batch, summed into FeedNanos. A nil clock (the default)
// turns timing off.
func (an *Analyzer) SetClock(now func() time.Time) { an.now = now }

// FeedNanos is the time spent analyzing delivered batches, as measured
// by the clock set with SetClock (zero without one).
func (an *Analyzer) FeedNanos() int64 { return an.feedNanos }

// Finish returns the completed analysis. The analyzer must not be fed
// after.
func (an *Analyzer) Finish() *Analysis {
	a := an.a
	a.Events = an.i
	if len(a.Refs) == 0 {
		// An unused Reserve leaves empty non-nil slices; an unreserved
		// analysis without heap references has nil ones.
		a.Refs, a.RefAt = nil, nil
	}
	return a
}

// Analyze reconstructs dynamic objects and the object-granular reference
// string from an in-memory trace.
func Analyze(t *Trace) *Analysis {
	an := NewAnalyzer()
	for _, ev := range t.Events {
		an.Feed(ev)
	}
	an.SetInstr(t.Instr)
	return an.Finish()
}

// Object returns the object with the given id, or nil.
func (a *Analysis) Object(id mem.ObjectID) *Object {
	if id == 0 || int(id) > len(a.Objects) {
		return nil
	}
	return a.Objects[id-1]
}

// ObjectBySiteInstance returns the object allocated as the instance-th
// allocation of site, or nil.
func (a *Analysis) ObjectBySiteInstance(site mem.SiteID, instance mem.Instance) *Object {
	objs := a.SiteObjects[site]
	if instance == 0 || int(instance) > len(objs) {
		return nil
	}
	return a.Object(objs[instance-1])
}
