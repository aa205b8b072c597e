// Package hds mines hot data streams from the object-granular reference
// string of a profiling trace.
//
// A hot data stream (HDS) is a set of hot objects that are accessed
// together repeatedly (Chilimbi & Shaham 2006). The original work detects
// them with Sequitur grammar inference; the paper replaces Sequitur with a
// Longest-Common-Subsequence miner "because it is highly efficient and as
// effective as Sequitur" (§3.1). This package implements both, so the
// substitution itself can be validated (see the ablation bench).
//
// Output of either miner is an OHDS: the observed HDS list in descending
// order of memory references, the input of the layout reconstitution
// algorithm (Algorithm 1).
package hds

import (
	"encoding/binary"
	"sort"

	"prefix/internal/mem"
)

// Stream is one hot data stream: an ordered list of distinct objects that
// tend to be accessed in this order, plus its heat.
type Stream struct {
	Objects []mem.ObjectID
	// Heat estimates the memory references attributable to the stream
	// (frequency × length); OHDS is sorted by it, descending.
	Heat uint64
}

// Contains reports whether the stream includes obj.
func (s Stream) Contains(obj mem.ObjectID) bool {
	for _, o := range s.Objects {
		if o == obj {
			return true
		}
	}
	return false
}

// Key returns a canonical string of the ordered member list, used to merge
// duplicate discoveries.
func (s Stream) Key() string {
	return string(appendKey(make([]byte, 0, len(s.Objects)*8), s.Objects))
}

// appendKey appends the Key encoding of objs to b.
func appendKey(b []byte, objs []mem.ObjectID) []byte {
	for _, o := range objs {
		b = binary.LittleEndian.AppendUint64(b, uint64(o))
	}
	return b
}

// Config controls mining.
type Config struct {
	// MinLength is the minimum number of distinct objects in a stream
	// (an HDS needs at least two objects to be useful, §2.1).
	MinLength int
	// MinFrequency is the minimum number of repetitions.
	MinFrequency int
	// MaxStreams caps the OHDS size.
	MaxStreams int
	// Window is the LCS miner's window length in references.
	Window int
	// Lags are the window offsets the LCS miner compares at: lag 1 finds
	// patterns that repeat back-to-back, larger lags find periodic
	// patterns whose period spans several windows (an interpreter loop
	// revisiting the same objects every N dispatches). Order does not
	// matter; a lag that is not positive is skipped, and a lag that runs
	// past the last window skips only that pair.
	Lags []int
}

// DefaultConfig mirrors the profiling setup used throughout the
// evaluation.
func DefaultConfig() Config {
	return Config{
		MinLength:    2,
		MinFrequency: 2,
		MaxStreams:   256,
		Window:       64,
		Lags:         []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64},
	}
}

// CollapseRefs filters a reference string to hot objects and collapses
// consecutive duplicates, the standard preprocessing for both miners
// (repeated accesses to one object carry no inter-object locality signal).
// A nil hot set keeps every reference.
func CollapseRefs(refs []mem.ObjectID, hot map[mem.ObjectID]bool) []mem.ObjectID {
	in, dense := denseSet(hot, 8*len(refs))
	out := make([]mem.ObjectID, 0, len(refs))
	var last mem.ObjectID
	for _, r := range refs {
		switch {
		case hot == nil:
		case dense:
			if r >= mem.ObjectID(len(in)) || !in[r] {
				continue
			}
		case !hot[r]:
			continue
		}
		if r == last && len(out) > 0 {
			continue
		}
		out = append(out, r)
		last = r
	}
	return out
}

// denseSet returns the ids set maps to true as a slice indexed by id, so
// a membership test is a bounds check and a load instead of a hash. An
// analysis numbers its objects 1..n, so the slice is about one byte per
// object. It reports false, and builds nothing, when the slice would be
// longer than limit bytes: ids no analysis assigned stay in the map.
func denseSet(set map[mem.ObjectID]bool, limit int) ([]bool, bool) {
	var top mem.ObjectID
	for id, in := range set {
		if in {
			top = max(top, id)
		}
	}
	if uint64(top) >= uint64(limit) {
		return nil, false
	}
	s := make([]bool, top+1)
	for id, in := range set {
		if in {
			s[id] = true
		}
	}
	return s, true
}

// dedupeOrdered removes repeated objects from a sequence, keeping first
// occurrences, so a Stream's member list is a set with an order.
func dedupeOrdered(seq []mem.ObjectID) []mem.ObjectID {
	seen := make(map[mem.ObjectID]bool, len(seq))
	out := seq[:0:0]
	for _, o := range seq {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// rankAndTrim merges duplicate streams, drops short or rare ones, sorts by
// heat and applies the cap — producing a valid OHDS.
func rankAndTrim(streams []Stream, cfg Config) []Stream {
	merged := make(map[string]*Stream)
	var order []string
	for _, s := range streams {
		s.Objects = dedupeOrdered(s.Objects)
		if len(s.Objects) < cfg.MinLength {
			continue
		}
		k := s.Key()
		if m, ok := merged[k]; ok {
			m.Heat += s.Heat
		} else {
			cp := s
			merged[k] = &cp
			order = append(order, k)
		}
	}
	out := make([]Stream, 0, len(merged))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Heat > out[j].Heat })
	if cfg.MaxStreams > 0 && len(out) > cfg.MaxStreams {
		out = out[:cfg.MaxStreams]
	}
	return out
}

// Objects returns the union of member objects across streams.
func Objects(streams []Stream) map[mem.ObjectID]bool {
	set := make(map[mem.ObjectID]bool)
	for _, s := range streams {
		for _, o := range s.Objects {
			set[o] = true
		}
	}
	return set
}
