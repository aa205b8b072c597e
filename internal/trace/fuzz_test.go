package trace

import (
	"bytes"
	"testing"
)

// FuzzRead throws arbitrary bytes at the trace decoders: neither may
// panic, anything accepted must re-encode losslessly, and the streaming
// reader must agree with the materializing Read on every input — same
// events in the same order, or an error on both sides.
func FuzzRead(f *testing.F) {
	// Seed with a valid trace and a few corruptions of it.
	var buf bytes.Buffer
	if err := record().Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("PFXT"))
	if len(valid) > 8 {
		truncated := append([]byte(nil), valid[:len(valid)/2]...)
		f.Add(truncated)
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/2] ^= 0xff
		f.Add(flipped)
	}
	// Multi-chunk seeds: a valid stream and a truncated chunk.
	var chunked bytes.Buffer
	sp, err := NewSpillRecorder(&chunked, 4)
	if err != nil {
		f.Fatal(err)
	}
	sp.RecordBatch(record().Events)
	sp.AddInstr(record().Instr)
	if err := sp.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(chunked.Bytes())
	f.Add(append([]byte(nil), chunked.Bytes()[:chunked.Len()-6]...))
	// Retired container versions, which both decoders reject.
	f.Add(v1Header())
	f.Add(v3Header())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))

		// The streaming reader must agree with Read byte for byte: the
		// same events in the same order, or an error on both paths.
		sr, srErr := NewStreamReader(bytes.NewReader(data))
		var streamed []Event
		var instr uint64
		if srErr == nil {
			for {
				ev, ok := sr.Next()
				if !ok {
					break
				}
				streamed = append(streamed, ev)
			}
			srErr = sr.Err()
			instr = sr.Instr()
		}
		if (err == nil) != (srErr == nil) {
			t.Fatalf("decoder disagreement: Read err=%v, stream err=%v", err, srErr)
		}
		if err != nil {
			return // rejecting garbage is fine, as long as both reject
		}
		if len(streamed) != len(tr.Events) || instr != tr.Instr {
			t.Fatalf("stream decoded %d events (instr %d), Read %d (instr %d)",
				len(streamed), instr, len(tr.Events), tr.Instr)
		}
		for i := range streamed {
			if streamed[i] != tr.Events[i] {
				t.Fatalf("event %d: stream %+v, Read %+v", i, streamed[i], tr.Events[i])
			}
		}

		// Anything accepted must survive a re-encode roundtrip.
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		tr2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if len(tr2.Events) != len(tr.Events) || tr2.Instr != tr.Instr {
			t.Fatal("re-encode roundtrip lost events")
		}
	})
}
