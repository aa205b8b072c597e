// Package layout implements PreFix's layout determination (§2.1): the
// reconstitution of observed hot data streams (Algorithm 1) and the
// assignment of every chosen hot object to a fixed offset inside the
// preallocated memory region.
//
// The key property Algorithm 1 guarantees is exploitability: in the output
// RHDS no object appears in more than one stream, so every stream can be
// laid out contiguously. The input OHDS does not have that property (the
// same hot object often participates in several observed streams — the red
// ids of the paper's Figure 2).
package layout

import (
	"cmp"
	"fmt"
	"slices"

	"prefix/internal/hds"
	"prefix/internal/mem"
)

// ReconStep is one Algorithm-1 action, recorded in input-stream order so
// the decision ledger can say exactly why each observed stream was kept,
// merged, split, or dropped.
type ReconStep struct {
	// Action is "seed", "unchanged", "drop", "merge", "split", or
	// "singleton".
	Action string `json:"action"`
	// Stream is the input OHDS index the action consumed.
	Stream int `json:"stream"`
	// Target is the output RHDS index affected, -1 for drop/singleton.
	Target int `json:"target"`
	// Objects is how many objects the action contributed to the layout.
	Objects int `json:"objects"`
	// Reason explains the action in Algorithm 1's terms.
	Reason string `json:"reason"`
}

// Reconstitution is the output of Algorithm 1.
type Reconstitution struct {
	// RHDS are the reconstituted streams, in construction order; placement
	// in the preallocated region follows this order.
	RHDS []hds.Stream
	// Singletons are hot objects that fell out of splitting with only one
	// object remaining; they are placed at the end of the region.
	Singletons []mem.ObjectID
	// Dropped counts OHDS that contributed nothing new (fully covered).
	Dropped int
	// Merged counts merge actions, Split counts split actions, Unchanged
	// counts unchanged inclusions (for the Figure 2 style summary).
	Merged, Split, Unchanged int
	// Steps is the per-input-stream action log, one entry per OHDS.
	Steps []ReconStep
}

// objectSet builds a membership set over a stream list.
func objectSet(streams []hds.Stream) map[mem.ObjectID]bool {
	set := make(map[mem.ObjectID]bool)
	for _, s := range streams {
		for _, o := range s.Objects {
			set[o] = true
		}
	}
	return set
}

// Reconstitute implements Algorithm 1. ohds must be sorted in descending
// order of memory references (the miner guarantees it).
func Reconstitute(ohds []hds.Stream) *Reconstitution {
	rec := &Reconstitution{}
	if len(ohds) == 0 {
		return rec
	}

	// RHDS ← Next(OHDS): the hottest stream seeds the output.
	rhds := []hds.Stream{cloneStream(ohds[0])}
	merged := []bool{false} // per-RHDS one-shot merge flag
	covered := objectSet(rhds)
	rec.Steps = append(rec.Steps, ReconStep{
		Action: "seed", Stream: 0, Target: 0, Objects: len(ohds[0].Objects),
		Reason: fmt.Sprintf("hottest observed stream (%d refs) seeds the layout", ohds[0].Heat),
	})

	for si, current := range ohds[1:] {
		si++ // input OHDS index
		// remaining ← Objects(current) − Objects(RHDS)
		var remaining []mem.ObjectID
		overlap := false
		for _, o := range current.Objects {
			if covered[o] {
				overlap = true
			} else {
				remaining = append(remaining, o)
			}
		}
		if len(remaining) == 0 {
			rec.Dropped++ // nothing to do: fully covered already
			rec.Steps = append(rec.Steps, ReconStep{
				Action: "drop", Stream: si, Target: -1,
				Reason: fmt.Sprintf("all %d objects already covered by hotter streams", len(current.Objects)),
			})
			continue
		}
		if !overlap {
			// Unchanged inclusion: disjoint from everything so far.
			rhds = append(rhds, cloneStream(current))
			merged = append(merged, false)
			for _, o := range current.Objects {
				covered[o] = true
			}
			rec.Unchanged++
			rec.Steps = append(rec.Steps, ReconStep{
				Action: "unchanged", Stream: si, Target: len(rhds) - 1, Objects: len(current.Objects),
				Reason: "disjoint from every placed stream; included unchanged",
			})
			continue
		}
		// Splitting/merging: append the remaining objects to the first
		// not-yet-merged RHDS stream that shares an object with current,
		// so shared objects sit next to the appended ones.
		done := false
		for i := range rhds {
			if merged[i] {
				continue
			}
			if intersects(rhds[i].Objects, current.Objects) {
				merged[i] = true
				rhds[i].Objects = append(rhds[i].Objects, remaining...)
				rhds[i].Heat += current.Heat
				for _, o := range remaining {
					covered[o] = true
				}
				done = true
				rec.Merged++
				rec.Steps = append(rec.Steps, ReconStep{
					Action: "merge", Stream: si, Target: i, Objects: len(remaining),
					Reason: fmt.Sprintf("shares objects with RHDS[%d]; %d uncovered objects appended there",
						i, len(remaining)),
				})
				break
			}
		}
		if !done {
			if len(remaining) > 1 {
				// Treat the remainder as a new stream.
				ns := hds.Stream{Objects: append([]mem.ObjectID(nil), remaining...), Heat: current.Heat}
				rhds = append(rhds, ns)
				merged = append(merged, false)
				for _, o := range remaining {
					covered[o] = true
				}
				rec.Split++
				rec.Steps = append(rec.Steps, ReconStep{
					Action: "split", Stream: si, Target: len(rhds) - 1, Objects: len(remaining),
					Reason: fmt.Sprintf("overlapping streams already merged; %d uncovered objects form a new stream",
						len(remaining)),
				})
			} else {
				// A single leftover object becomes a hot singleton at the
				// end of the preallocated region.
				rec.Singletons = append(rec.Singletons, remaining[0])
				covered[remaining[0]] = true
				rec.Split++
				rec.Steps = append(rec.Steps, ReconStep{
					Action: "singleton", Stream: si, Target: -1, Objects: 1,
					Reason: fmt.Sprintf("split left only %v uncovered; placed as a singleton after the streams",
						remaining[0]),
				})
			}
		}
	}
	rec.RHDS = rhds
	return rec
}

func cloneStream(s hds.Stream) hds.Stream {
	return hds.Stream{Objects: append([]mem.ObjectID(nil), s.Objects...), Heat: s.Heat}
}

func intersects(a, b []mem.ObjectID) bool {
	set := make(map[mem.ObjectID]bool, len(a))
	for _, o := range a {
		set[o] = true
	}
	for _, o := range b {
		if set[o] {
			return true
		}
	}
	return false
}

// Validate checks the exploitability invariant: no object in more than one
// RHDS stream, and no singleton inside any stream.
func (r *Reconstitution) Validate() error {
	seen := make(map[mem.ObjectID]int)
	for i, s := range r.RHDS {
		inner := make(map[mem.ObjectID]bool)
		for _, o := range s.Objects {
			if inner[o] {
				return fmt.Errorf("layout: object %v duplicated inside RHDS[%d]", o, i)
			}
			inner[o] = true
			if j, ok := seen[o]; ok {
				return fmt.Errorf("layout: object %v in RHDS[%d] and RHDS[%d]", o, j, i)
			}
			seen[o] = i
		}
	}
	for _, o := range r.Singletons {
		if i, ok := seen[o]; ok {
			return fmt.Errorf("layout: singleton %v also in RHDS[%d]", o, i)
		}
	}
	return nil
}

// Order returns the final placement order: streams first (in order), then
// singletons — the paper's "{2018, 2009, 2012, ...}" list of Figure 2.
func (r *Reconstitution) Order() []mem.ObjectID {
	var out []mem.ObjectID
	for _, s := range r.RHDS {
		out = append(out, s.Objects...)
	}
	return append(out, r.Singletons...)
}

// Placement maps every placed object to its offset within the
// preallocated region.
type Placement struct {
	Offsets map[mem.ObjectID]uint64
	Sizes   map[mem.ObjectID]uint64 // reserved (aligned) size per object
	Total   uint64                  // region size in bytes
	Order   []mem.ObjectID
}

// Align is the slot alignment inside the preallocated region. 16 matches
// malloc alignment so the transformation is a drop-in replacement.
const Align = 16

// Assign packs the objects in order into the region. sizes gives each
// object's allocation size from the profiling trace ("the object sizes
// that are used are based on the traces collected from the profiling
// run"). Objects missing from sizes get a minimal slot.
func Assign(order []mem.ObjectID, sizes map[mem.ObjectID]uint64) *Placement {
	p := &Placement{
		Offsets: make(map[mem.ObjectID]uint64, len(order)),
		Sizes:   make(map[mem.ObjectID]uint64, len(order)),
		Order:   append([]mem.ObjectID(nil), order...),
	}
	var off uint64
	for _, o := range order {
		if _, dup := p.Offsets[o]; dup {
			continue // defensive: placement is idempotent per object
		}
		sz := sizes[o]
		if sz == 0 {
			sz = Align
		}
		sz = mem.AlignUp(sz, Align)
		p.Offsets[o] = off
		p.Sizes[o] = sz
		off += sz
	}
	p.Total = off
	return p
}

// Validate checks that slots do not overlap and stay inside the region.
func (p *Placement) Validate() error {
	type slot struct {
		obj  mem.ObjectID
		off  uint64
		size uint64
	}
	slots := make([]slot, 0, len(p.Offsets))
	for o, off := range p.Offsets {
		slots = append(slots, slot{o, off, p.Sizes[o]})
	}
	slices.SortFunc(slots, func(x, y slot) int { return cmp.Compare(x.off, y.off) })
	for i, s := range slots {
		if s.off+s.size > p.Total {
			return fmt.Errorf("layout: slot for %v [%d,%d) exceeds region %d", s.obj, s.off, s.off+s.size, p.Total)
		}
		if i > 0 {
			prev := slots[i-1]
			if prev.off+prev.size > s.off {
				return fmt.Errorf("layout: slots %v and %v overlap", prev.obj, s.obj)
			}
		}
	}
	return nil
}
