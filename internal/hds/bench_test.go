package hds

import (
	"fmt"
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// benchRefs builds a reference string with embedded repetition, the shape
// the miners see after hot-object filtering.
func benchRefs(n int) []mem.ObjectID {
	rng := xrand.New(3)
	motif := randSeq(rng, 24, 12)
	refs := make([]mem.ObjectID, 0, n)
	for len(refs) < n {
		if rng.Bool(0.7) {
			refs = append(refs, motif...)
		} else {
			refs = append(refs, randSeq(rng, 16, 200)...)
		}
	}
	return refs[:n]
}

func BenchmarkMineLCS(b *testing.B) {
	refs := benchRefs(16384)
	cfg := Config{Window: 64, MinLength: 4, MinFrequency: 2, MaxStreams: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MineLCS(refs, cfg)
	}
}

// lcsSink keeps BenchmarkLCSPair's results live.
var lcsSink []mem.ObjectID

// BenchmarkLCSPair times one 64×64 window pair through the bit-parallel
// kernel (match-mask table build included, as for an anchor compared at
// a single lag) and through the DP it replaced, at a small alphabet,
// where most columns match, and a large one, where most miss the table.
func BenchmarkLCSPair(b *testing.B) {
	for _, alphabet := range []int{8, 1000} {
		rng := xrand.New(11)
		x, y := randSeq(rng, 64, alphabet), randSeq(rng, 64, alphabet)
		b.Run(fmt.Sprintf("kernel/alphabet=%d", alphabet), func(b *testing.B) {
			var lb lcsBuf
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lcsSink = lb.lcs(x, y)
			}
		})
		b.Run(fmt.Sprintf("dp/alphabet=%d", alphabet), func(b *testing.B) {
			var lb lcsBuf
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lcsSink = lb.lcsDP(x, y)
			}
		})
	}
}

func BenchmarkSequiturAppend(b *testing.B) {
	refs := benchRefs(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewSequitur()
		for _, r := range refs {
			g.Append(r)
		}
	}
}
