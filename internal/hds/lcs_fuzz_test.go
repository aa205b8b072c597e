package hds

import (
	"reflect"
	"testing"

	"prefix/internal/mem"
)

// lcsFuzzPalette maps fuzz symbols to object IDs. It opens with IDs that
// share the match-mask table's last home slot and IDs homed at slot 0,
// so even a small alphabet builds long probe chains that wrap around the
// table, then ID 0 (the obj field of an empty slot) and the extreme IDs,
// then distinct fillers so an alphabet can reach 64 distinct objects.
var lcsFuzzPalette = func() []mem.ObjectID {
	var last, first []mem.ObjectID
	for o := mem.ObjectID(1); len(last) < 8 || len(first) < 4; o++ {
		switch s := maskSlotOf(o); {
		case s == maskSlots-1 && len(last) < 8:
			last = append(last, o)
		case s == 0 && len(first) < 4:
			first = append(first, o)
		}
	}
	p := append(last, first...)
	p = append(p, 0, 1<<63, ^mem.ObjectID(0))
	for o := mem.ObjectID(1 << 40); len(p) < 80; o += 7919 {
		p = append(p, o)
	}
	return p
}()

// lcsFuzzSeqs decodes a fuzz input: one byte choosing the alphabet size
// (a prefix of lcsFuzzPalette), then up to eight sequences, each a length
// byte (taken mod 65) followed by that many symbol bytes. A sequence cut
// short by the end of the input keeps the symbols that are there.
func lcsFuzzSeqs(data []byte) [][]mem.ObjectID {
	if len(data) == 0 {
		return nil
	}
	alphabet := 1 + int(data[0])%len(lcsFuzzPalette)
	data = data[1:]
	var seqs [][]mem.ObjectID
	for len(data) > 0 && len(seqs) < 8 {
		n := min(int(data[0])%(lcsMaxAnchor+1), len(data)-1)
		s := make([]mem.ObjectID, n)
		for i, c := range data[1 : 1+n] {
			s[i] = lcsFuzzPalette[int(c)%alphabet]
		}
		seqs = append(seqs, s)
		data = data[1+n:]
	}
	return seqs
}

// lcsFuzzInput encodes an alphabet size and sequences of symbols in the
// format lcsFuzzSeqs decodes.
func lcsFuzzInput(alphabet byte, seqs ...[]byte) []byte {
	out := []byte{alphabet - 1}
	for _, s := range seqs {
		out = append(out, byte(len(s)))
		out = append(out, s...)
	}
	return out
}

// FuzzLCSKernel: every decoded sequence in turn becomes the anchor of
// one lcsBuf, and the kernel compares it against every sequence through
// that anchor's table before the table is rebuilt for the next anchor.
// Each result must be exactly naiveLCS's subsequence.
func FuzzLCSKernel(f *testing.F) {
	rep := func(c byte, n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = c
		}
		return s
	}
	ramp := func(n, mod int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = byte((i*7 + i/5) % mod)
		}
		return s
	}
	distinct := func(n int, rev bool) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(i)
			if rev {
				s[i] = byte(n - 1 - i)
			}
		}
		return s
	}
	f.Add([]byte{})
	f.Add(lcsFuzzInput(3, nil, []byte{1, 2}, nil))
	f.Add(lcsFuzzInput(2, []byte{0}, []byte{0}, []byte{1}))
	f.Add(lcsFuzzInput(1, rep(0, 64), rep(0, 64), rep(0, 10)))
	f.Add(lcsFuzzInput(8, ramp(64, 8), ramp(64, 5), ramp(63, 8), ramp(64, 3)))
	f.Add(lcsFuzzInput(64, distinct(64, false), distinct(64, true), distinct(64, false)))
	f.Add(lcsFuzzInput(12, ramp(64, 12), ramp(40, 12), rep(11, 64), ramp(64, 7)))
	f.Add(lcsFuzzInput(80, ramp(64, 80), ramp(64, 13), rep(79, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		seqs := lcsFuzzSeqs(data)
		var lb lcsBuf
		for _, a := range seqs {
			lb.setAnchor(a)
			for _, b := range seqs {
				if got, want := lb.lcsWith(b), naiveLCS(a, b); !reflect.DeepEqual(got, want) {
					t.Fatalf("lcsWith(%v, %v) = %v, want %v", a, b, got, want)
				}
			}
		}
	})
}
