package hds

import (
	"testing"

	"prefix/internal/mem"
)

func ids(vs ...uint64) []mem.ObjectID {
	out := make([]mem.ObjectID, len(vs))
	for i, v := range vs {
		out[i] = mem.ObjectID(v)
	}
	return out
}

func TestCollapseRefs(t *testing.T) {
	hot := map[mem.ObjectID]bool{1: true, 2: true, 3: true}
	refs := ids(1, 1, 2, 9, 2, 3, 3, 3, 1)
	got := CollapseRefs(refs, hot)
	want := ids(1, 2, 3, 1)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestCollapseRefsNilFilter(t *testing.T) {
	got := CollapseRefs(ids(5, 5, 6), nil)
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Errorf("got %v", got)
	}
}

// TestCollapseRefsSparseIDs: ids far past the reference string's length,
// up to the largest ObjectID, filter as the map says without building a
// slice that long; ids mapped to false are not hot.
func TestCollapseRefsSparseIDs(t *testing.T) {
	big := ^mem.ObjectID(0)
	hot := map[mem.ObjectID]bool{big: true, 1 << 63: true, 2: true, 3: false}
	got := CollapseRefs(ids(uint64(big), 3, 2, 2, 1<<63, 7), hot)
	want := ids(uint64(big), 2, 1<<63)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if _, dense := denseSet(hot, 8*6); dense {
		t.Error("denseSet built a slice for ids past its limit")
	}
	if s, dense := denseSet(map[mem.ObjectID]bool{4: true, 9: false}, 8); !dense || len(s) != 5 || !s[4] || s[3] {
		t.Errorf("denseSet(4) = %v, %v; want 5 entries with only 4 set", s, dense)
	}
}

func TestCollapseRefsKeepsSeparatedDuplicates(t *testing.T) {
	got := CollapseRefs(ids(1, 2, 1), map[mem.ObjectID]bool{1: true, 2: true})
	if len(got) != 3 {
		t.Errorf("separated duplicates must survive: %v", got)
	}
}

func TestStreamContainsAndKey(t *testing.T) {
	s := Stream{Objects: ids(3, 1, 2)}
	if !s.Contains(1) || s.Contains(9) {
		t.Error("Contains wrong")
	}
	s2 := Stream{Objects: ids(3, 1, 2)}
	s3 := Stream{Objects: ids(1, 2, 3)}
	if s.Key() != s2.Key() {
		t.Error("identical streams must share keys")
	}
	if s.Key() == s3.Key() {
		t.Error("order must be part of the key")
	}
}

func TestRankAndTrim(t *testing.T) {
	streams := []Stream{
		{Objects: ids(1, 2), Heat: 10},
		{Objects: ids(1, 2), Heat: 5},      // duplicate: merge heat
		{Objects: ids(3, 4, 3), Heat: 100}, // dedupe members
		{Objects: ids(7), Heat: 1000},      // too short
	}
	got := rankAndTrim(streams, Config{MinLength: 2, MaxStreams: 10})
	if len(got) != 2 {
		t.Fatalf("got %d streams", len(got))
	}
	if got[0].Heat != 100 || len(got[0].Objects) != 2 {
		t.Errorf("top stream = %+v", got[0])
	}
	if got[1].Heat != 15 {
		t.Errorf("merged heat = %d, want 15", got[1].Heat)
	}
}

func TestRankAndTrimCap(t *testing.T) {
	var streams []Stream
	for i := uint64(0); i < 20; i++ {
		streams = append(streams, Stream{Objects: ids(i*2+1, i*2+2), Heat: i})
	}
	got := rankAndTrim(streams, Config{MinLength: 2, MaxStreams: 5})
	if len(got) != 5 {
		t.Errorf("cap failed: %d", len(got))
	}
	if got[0].Heat != 19 {
		t.Error("cap must keep the hottest")
	}
}

func TestObjects(t *testing.T) {
	set := Objects([]Stream{{Objects: ids(1, 2)}, {Objects: ids(2, 3)}})
	if len(set) != 3 || !set[1] || !set[2] || !set[3] {
		t.Errorf("union = %v", set)
	}
}

func TestWeighByAccesses(t *testing.T) {
	streams := []Stream{
		{Objects: ids(1, 2), Heat: 1},
		{Objects: ids(3), Heat: 2},
	}
	acc := map[mem.ObjectID]uint64{1: 10, 2: 20, 3: 500}
	got := WeighByAccesses(streams, acc)
	if got[0].Heat != 500 || got[1].Heat != 30 {
		t.Errorf("weighed heats = %d,%d", got[0].Heat, got[1].Heat)
	}
	// Input must be unmodified.
	if streams[0].Heat != 1 {
		t.Error("WeighByAccesses mutated its input")
	}
}
