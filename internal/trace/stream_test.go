package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prefix/internal/mem"
)

// drain pulls every event out of a source, failing the test on a decode
// error.
func drain(t *testing.T, src Source) []Event {
	t.Helper()
	var evs []Event
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		evs = append(evs, ev)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("source error: %v", err)
	}
	return evs
}

// writeChunked records tr through a SpillRecorder with the given chunk
// size, one event per batch, and returns the encoded bytes.
func writeChunked(t *testing.T, tr *Trace, chunkEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sp, err := NewSpillRecorder(&buf, chunkEvents)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		sp.RecordBatch(tr.Events[i : i+1])
	}
	sp.AddInstr(tr.Instr)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamRoundtripChunkSizes(t *testing.T) {
	tr := record() // 12 events
	for _, chunk := range []int{1, 3, 4, 12, 100} {
		data := writeChunked(t, tr, chunk)
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		got := drain(t, sr)
		if !reflect.DeepEqual(got, tr.Events) {
			t.Fatalf("chunk %d: events differ:\n got %+v\nwant %+v", chunk, got, tr.Events)
		}
		if sr.Instr() != tr.Instr {
			t.Fatalf("chunk %d: instr = %d, want %d", chunk, sr.Instr(), tr.Instr)
		}
		wantChunks := uint64((len(tr.Events) + chunk - 1) / chunk)
		if sr.Chunks() != wantChunks {
			t.Fatalf("chunk %d: chunks = %d, want %d", chunk, sr.Chunks(), wantChunks)
		}
	}
}

func TestSpillRecorderStats(t *testing.T) {
	tr := record()
	var buf bytes.Buffer
	sp, err := NewSpillRecorder(&buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	sp.RecordBatch(tr.Events[:7])
	sp.RecordBatch(tr.Events[7:])
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	s := sp.Stats()
	if s.Events != uint64(len(tr.Events)) {
		t.Errorf("Events = %d, want %d", s.Events, len(tr.Events))
	}
	if s.Chunks != 3 { // 12 events at chunk size 5 -> 5+5+2
		t.Errorf("Chunks = %d, want 3", s.Chunks)
	}
	if s.PeakBufferedEvents != 5 {
		t.Errorf("PeakBufferedEvents = %d, want 5", s.PeakBufferedEvents)
	}
}

func TestStreamEmptyTrace(t *testing.T) {
	data := writeChunked(t, &Trace{Instr: 77}, 4)
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if evs := drain(t, sr); len(evs) != 0 {
		t.Fatalf("events = %+v, want none", evs)
	}
	if sr.Instr() != 77 {
		t.Errorf("instr = %d, want 77", sr.Instr())
	}
}

func TestReadAcceptsChunkedFormat(t *testing.T) {
	tr := record()
	got, err := Read(bytes.NewReader(writeChunked(t, tr, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Instr != tr.Instr || !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("Read over chunked bytes differs from source trace")
	}
}

func TestStreamTruncatedChunk(t *testing.T) {
	data := writeChunked(t, record(), 4)
	sr, err := NewStreamReader(bytes.NewReader(data[:len(data)-6]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := sr.Next(); !ok {
			break
		}
	}
	if sr.Err() == nil {
		t.Fatal("truncated chunked stream decoded cleanly")
	}
}

func TestStreamOverlongChunkHeaderRejected(t *testing.T) {
	// A chunk claiming more events than the declared chunk size is
	// corrupt and must fail without trusting the count.
	var buf bytes.Buffer
	sp, err := NewSpillRecorder(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Header is "PFXT" + version varint + chunkSize varint; splice in a
	// bogus chunk frame claiming 100 events (one varint byte).
	head := data[:len(magic)+2]
	doctored := append(append([]byte(nil), head...), 100)
	sr, err := NewStreamReader(bytes.NewReader(doctored))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sr.Next(); ok {
		t.Fatal("Next succeeded on bogus chunk header")
	}
	if err := sr.Err(); err == nil || !strings.Contains(err.Error(), "above the declared chunk size") {
		t.Fatalf("err = %v, want chunk-size violation", err)
	}
}

// TestTraceSourceSink: a Trace's Source drained into a Recorder, the
// in-memory sink, reproduces the trace.
func TestTraceSourceSink(t *testing.T) {
	tr := record()
	src := tr.Source()
	rec := NewRecorder()
	rec.RecordBatch(drain(t, src))
	rec.AddInstr(src.Instr())
	if got := rec.Trace(); !reflect.DeepEqual(got.Events, tr.Events) || got.Instr != tr.Instr {
		t.Fatal("Trace source->recorder copy differs")
	}
}

func TestSpillRecorderMatchesRecorder(t *testing.T) {
	// Drive both recorders with the same batches; the spill file must
	// decode to exactly the in-memory trace.
	mm := NewRecorder()
	var buf bytes.Buffer
	sp, err := NewSpillRecorder(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []EventRecorder{mm, sp} {
		rec.RecordBatch([]Event{allocEv(1, 0xabc, 0x1000, 64)})
		rec.RecordBatch([]Event{accessEv(0x1000, 8, false), accessEv(0x1020, 8, true), allocEv(2, 0xdef, 0x2000, 32)})
		rec.RecordBatch(nil)
		rec.RecordBatch([]Event{freeEv(0x1000), reallocEv(0x2000, 0x3000, 96), accessEv(0x3000, 8, true)})
		rec.AddInstr(4000)
		rec.AddInstr(321)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := mm.Trace()
	if !reflect.DeepEqual(got.Events, want.Events) || got.Instr != want.Instr {
		t.Fatalf("spill file decodes to:\n %+v\nwant %+v", got, want)
	}
	s := sp.Stats()
	if s.Events != uint64(len(want.Events)) || s.PeakBufferedEvents > 3 || s.Chunks == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSpillRecorderLatchesWriteError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.pfxt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpillRecorder(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // every subsequent chunk flush fails
	for i := 0; i < 10; i++ {
		sp.RecordBatch([]Event{accessEv(0x1000, 8, false)}) // must not panic
	}
	if sp.Err() == nil && sp.Close() == nil {
		t.Fatal("write error on closed file never surfaced")
	}
}

// TestSpillRecorderLatchesMisuse: an event the container cannot encode
// and a batch after Close both latch an error that Close (and Write)
// return, and recording stops.
func TestSpillRecorderLatchesMisuse(t *testing.T) {
	var buf bytes.Buffer
	sp, err := NewSpillRecorder(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	sp.RecordBatch([]Event{accessEv(0x1000, 8, false), {Kind: 0}, accessEv(0x1008, 8, false)})
	if err := sp.Close(); err == nil || !strings.Contains(err.Error(), "cannot encode") {
		t.Errorf("Close after a bad event = %v, want the encode error", err)
	}
	if s := sp.Stats(); s.Events != 1 {
		t.Errorf("recorded %d events, want 1 (recording stops at the error)", s.Events)
	}
	if err := (&Trace{Events: []Event{{Kind: 9}}}).Write(io.Discard); err == nil {
		t.Error("Trace.Write accepted an event of unknown kind")
	}

	sp, err = NewSpillRecorder(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	sp.RecordBatch([]Event{accessEv(0x1000, 8, false)})
	if err := sp.Err(); err == nil || !strings.Contains(err.Error(), "after Close") {
		t.Errorf("RecordBatch after Close: Err = %v", err)
	}
}

func TestAnalyzeSourceMatchesAnalyze(t *testing.T) {
	tr := record()
	want := Analyze(tr)

	fromSlice, err := AnalyzeSource(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromSlice, want) {
		t.Fatal("AnalyzeSource(slice) differs from Analyze")
	}

	sr, err := NewStreamReader(bytes.NewReader(writeChunked(t, tr, 4)))
	if err != nil {
		t.Fatal(err)
	}
	fromStream, err := AnalyzeSource(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromStream, want) {
		t.Fatal("AnalyzeSource(stream) differs from Analyze")
	}
	if want.Events != len(tr.Events) {
		t.Errorf("Analysis.Events = %d, want %d", want.Events, len(tr.Events))
	}
}

func TestAnalyzeSourceTruncatedStreamErrors(t *testing.T) {
	data := writeChunked(t, record(), 4)
	sr, err := NewStreamReader(bytes.NewReader(data[:len(data)-6]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeSource(sr); err == nil {
		t.Fatal("AnalyzeSource accepted a truncated stream")
	}
}

// TestStreamBoundedMemoryLargeTrace is the acceptance check for the
// streaming pipeline: a >10M-event run recorded through the spill
// recorder must keep the peak trace buffer at one chunk, and the
// resulting stream must analyze to the expected object population.
func TestStreamBoundedMemoryLargeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-event stream test skipped in -short mode")
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "big.pfxt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const chunk = 1 << 14
	rec, err := NewSpillRecorder(f, chunk)
	if err != nil {
		t.Fatal(err)
	}

	// 1M rounds of alloc + 9 accesses + free: >10M events with a live
	// set of one object, so the analyzer side stays small too.
	const rounds = 1_000_000
	batch := make([]Event, 0, 11) // reused, as the machine reuses its batch
	for i := 0; i < rounds; i++ {
		addr := mem.Addr(0x1000 + uint64(i%64)*0x100)
		batch = append(batch[:0], allocEv(mem.SiteID(i%7+1), mem.StackSig(i%13), addr, 128))
		for j := 0; j < 9; j++ {
			batch = append(batch, accessEv(addr+mem.Addr(j*8), 8, j%2 == 0))
		}
		rec.RecordBatch(append(batch, freeEv(addr)))
	}
	rec.AddInstr(rounds * 11)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	s := rec.Stats()
	if want := uint64(rounds * 11); s.Events != want {
		t.Fatalf("recorded %d events, want %d", s.Events, want)
	}
	if s.PeakBufferedEvents > chunk {
		t.Fatalf("peak buffered events %d exceeds the chunk budget %d", s.PeakBufferedEvents, chunk)
	}
	if s.Chunks < rounds*11/chunk {
		t.Fatalf("chunks spilled = %d, want at least %d", s.Chunks, rounds*11/chunk)
	}

	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(f)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeSource(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Objects) != rounds {
		t.Errorf("objects = %d, want %d", len(a.Objects), rounds)
	}
	if a.HeapAccesses != rounds*9 {
		t.Errorf("heap accesses = %d, want %d", a.HeapAccesses, rounds*9)
	}
	if a.MaxLive != 1 {
		t.Errorf("max live = %d, want 1", a.MaxLive)
	}
	if a.Instr != rounds*11 {
		t.Errorf("instr = %d", a.Instr)
	}
}
