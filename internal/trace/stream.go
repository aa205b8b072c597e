package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"prefix/internal/obs"
)

// This file is the streaming half of the trace layer. The in-memory
// *Trace stays the reference implementation, but every consumer that can
// work single-pass reads a Source, and every producer hands its events to
// an EventRecorder, so profiling runs with tens of millions of events
// never have to materialize the whole stream:
//
//	EventRecorder — the one write interface: batches of events in trace
//	                order plus the run's instruction count (*Recorder
//	                keeps them, *SpillRecorder spills fixed-size chunks
//	                to a writer, *Analyzer analyzes them as they arrive)
//	Source        — pull iterator over events (in-memory slice, or an
//	                incremental decode of a trace file)
//
// Both ends speak the one PFXT container (see encode.go): events framed
// into chunks of at most the writer's configured size, so writer and
// reader each hold one chunk at most.

// Source is a pull iterator over an event stream in trace order.
type Source interface {
	// Next returns the next event; ok=false ends the stream. After a
	// false return, Err distinguishes clean end-of-stream from a decode
	// error.
	Next() (ev Event, ok bool)
	// Err returns the first error the source hit, or nil.
	Err() error
	// Instr returns the total dynamic instruction count of the traced
	// run. It is guaranteed valid only after Next has returned false
	// (chunked files carry it in the stream terminator).
	Instr() uint64
}

// EventRecorder is the write interface the machine layer feeds during a
// profiled run: the machine buffers its events and hands each full
// batch over in one RecordBatch call, so the recorder interface is
// crossed once per batch rather than once per event. RecordBatch must
// not retain evs (the caller reuses the buffer). AddInstr accumulates
// the run's dynamic instruction count; each machine of a group reports
// its own. *Recorder (in-memory), *SpillRecorder (bounded memory) and
// *Analyzer (analyze while recording, nothing kept) implement it.
type EventRecorder interface {
	RecordBatch(evs []Event)
	AddInstr(n uint64)
}

// RecorderStats describes what a recorder captured and how much of it
// was ever resident: Events is the total recorded, Chunks how many
// fixed-size chunks were spilled to the backing writer (zero for the
// in-memory recorder and the analyzer), and PeakBufferedEvents the
// largest number of events simultaneously buffered in memory — the
// whole trace for the in-memory recorder, at most one chunk for the
// spilling one, and the largest delivered batch for the analyzer.
type RecorderStats struct {
	Events             uint64
	Chunks             uint64
	PeakBufferedEvents int
}

// Publish reports the recorder statistics into reg under the given
// label pairs. Nil-safe like every obs entry point.
func (s RecorderStats) Publish(reg *obs.Registry, kv ...string) {
	if reg == nil {
		return
	}
	reg.Counter("prefix_trace_recorded_events_total", kv...).Add(s.Events)
	reg.Counter("prefix_trace_spilled_chunks_total", kv...).Add(s.Chunks)
	reg.Gauge("prefix_trace_peak_buffered_events", kv...).Set(float64(s.PeakBufferedEvents))
}

// Source returns an iterator over the in-memory events.
func (t *Trace) Source() Source { return &sliceSource{t: t} }

type sliceSource struct {
	t *Trace
	i int
}

func (s *sliceSource) Next() (Event, bool) {
	if s.i >= len(s.t.Events) {
		return Event{}, false
	}
	ev := s.t.Events[s.i]
	s.i++
	return ev, true
}

func (s *sliceSource) Err() error    { return nil }
func (s *sliceSource) Instr() uint64 { return s.t.Instr }

var (
	_ EventRecorder = (*Recorder)(nil)
	_ EventRecorder = (*SpillRecorder)(nil)
	_ EventRecorder = (*Analyzer)(nil)
)

// --- Chunked stream reader ---------------------------------------------

// StreamReader decodes a trace file incrementally, holding no event
// buffer at all.
type StreamReader struct {
	dec       eventDecoder
	instr     uint64
	events    uint64 // events decoded so far
	remaining uint64 // events left in the current chunk
	chunkSize uint64 // declared chunk size
	chunks    uint64
	done      bool
	err       error
}

// NewStreamReader reads the container header and returns a Source over
// the file's events. Any version other than the one SpillRecorder
// writes is rejected.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic (not a PreFix trace file)")
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if ver != version {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", ver, version)
	}
	s := &StreamReader{}
	s.dec.br = br
	if s.chunkSize, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("trace: reading chunk size: %w", err)
	}
	if s.chunkSize == 0 {
		return nil, errors.New("trace: chunked stream declares zero chunk size")
	}
	return s, nil
}

func (s *StreamReader) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Next implements Source.
func (s *StreamReader) Next() (Event, bool) {
	if s.done || s.err != nil {
		return Event{}, false
	}
	if s.remaining == 0 {
		// The next frame is a chunk header or the terminator.
		n, err := binary.ReadUvarint(s.dec.br)
		if err != nil {
			s.fail(fmt.Errorf("trace: chunk %d header: %w", s.chunks, err))
			return Event{}, false
		}
		if n == 0 {
			instr, err := binary.ReadUvarint(s.dec.br)
			if err != nil {
				s.fail(fmt.Errorf("trace: stream terminator: %w", err))
				return Event{}, false
			}
			s.instr = instr
			s.done = true
			return Event{}, false
		}
		if n > s.chunkSize {
			s.fail(fmt.Errorf("trace: chunk %d claims %d events, above the declared chunk size %d",
				s.chunks, n, s.chunkSize))
			return Event{}, false
		}
		s.chunks++
		s.remaining = n
	}
	ev, err := s.dec.decode(s.events)
	if err != nil {
		s.fail(err)
		return Event{}, false
	}
	s.events++
	s.remaining--
	return ev, true
}

// Err implements Source.
func (s *StreamReader) Err() error { return s.err }

// Instr implements Source. It is valid only after Next has returned
// false: the count sits in the stream terminator.
func (s *StreamReader) Instr() uint64 { return s.instr }

// Events returns the number of events decoded so far.
func (s *StreamReader) Events() uint64 { return s.events }

// Chunks returns the number of chunk frames consumed.
func (s *StreamReader) Chunks() uint64 { return s.chunks }

// capHint returns a bounded capacity hint for materializing the stream:
// the declared chunk size, capped so a doctored header cannot drive a
// huge allocation (real events grow the slice as they decode).
func (s *StreamReader) capHint() int {
	hint := s.chunkSize
	if hint > maxPreallocEvents {
		hint = maxPreallocEvents
	}
	return int(hint)
}

var _ Source = (*StreamReader)(nil)

// --- Spill-to-disk recorder: the chunked writer --------------------------

// DefaultChunkEvents is the default chunk size of the spill recorder:
// the maximum number of events buffered in memory before a chunk is
// flushed to the backing writer.
const DefaultChunkEvents = 1 << 16

// SpillRecorder is the bounded-memory trace recorder and the one writer
// of the chunked PFXT container. Events are encoded into an in-memory
// chunk as they arrive; when the chunk holds chunkEvents events it is
// framed and flushed, so the recorder never buffers more than one chunk
// regardless of trace length. Trace.Write writes through it too, so a
// run recorded here and the same events written from memory are
// byte-identical at the same chunk size.
//
// RecordBatch cannot return errors, so a write failure is latched:
// recording becomes a no-op and the error surfaces from Err and Close.
// Callers must Close the recorder (which writes the stream terminator)
// before reading the file back.
type SpillRecorder struct {
	w           *bufio.Writer
	enc         eventEncoder
	chunk       bytes.Buffer // encoded bytes of the open chunk
	chunkEvents int
	n           int // events in the open chunk
	instr       uint64
	stats       RecorderStats
	closed      bool
	err         error
}

// NewSpillRecorder starts a chunked stream on w (typically a file).
// chunkEvents is the memory budget in events per chunk; values < 1
// select DefaultChunkEvents. The stream is invalid until Close succeeds.
func NewSpillRecorder(w io.Writer, chunkEvents int) (*SpillRecorder, error) {
	if chunkEvents < 1 {
		chunkEvents = DefaultChunkEvents
	}
	r := &SpillRecorder{w: bufio.NewWriter(w), chunkEvents: chunkEvents}
	r.enc.w = &r.chunk
	if _, err := r.w.WriteString(magic); err != nil {
		return nil, err
	}
	if err := writeUvarint(r.w, version); err != nil {
		return nil, err
	}
	if err := writeUvarint(r.w, uint64(chunkEvents)); err != nil {
		return nil, err
	}
	return r, nil
}

// fail latches the first error.
func (r *SpillRecorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// RecordBatch implements EventRecorder: the events are encoded in
// order, flushing chunks as they fill. The delta-encoder state runs
// continuously and chunk boundaries fall at the same event indexes
// however the stream is split into batches, so the bytes depend only on
// the events and the chunk size. The chunk staging buffer is reused
// across chunks, so steady-state encoding allocates nothing.
func (r *SpillRecorder) RecordBatch(evs []Event) {
	if r.err != nil {
		return
	}
	if r.closed {
		r.fail(errors.New("trace: RecordBatch after Close"))
		return
	}
	for i := range evs {
		if err := r.enc.encode(evs[i]); err != nil {
			r.fail(err)
			return
		}
		r.n++
		r.stats.Events++
		if r.n > r.stats.PeakBufferedEvents {
			r.stats.PeakBufferedEvents = r.n
		}
		if r.n >= r.chunkEvents && !r.flushChunk() {
			return
		}
	}
}

// flushChunk frames and writes the open chunk: its event count, then
// the encoded events. It reports whether the write succeeded.
func (r *SpillRecorder) flushChunk() bool {
	if err := writeUvarint(r.w, uint64(r.n)); err != nil {
		r.fail(err)
		return false
	}
	if _, err := r.chunk.WriteTo(r.w); err != nil {
		r.fail(err)
		return false
	}
	r.chunk.Reset()
	r.n = 0
	r.stats.Chunks++
	return true
}

// AddInstr implements EventRecorder; the total lands in the stream
// terminator.
func (r *SpillRecorder) AddInstr(n uint64) { r.instr += n }

// Err returns the first write error, if any.
func (r *SpillRecorder) Err() error { return r.err }

// Close flushes the final partial chunk and writes the terminator (the
// end marker and the instruction count). Close is idempotent; the first
// error wins.
func (r *SpillRecorder) Close() error {
	if r.err != nil || r.closed {
		return r.err
	}
	r.closed = true
	if r.n > 0 && !r.flushChunk() {
		return r.err
	}
	if err := writeUvarint(r.w, 0); err != nil {
		r.fail(err)
	} else if err := writeUvarint(r.w, r.instr); err != nil {
		r.fail(err)
	} else if err := r.w.Flush(); err != nil {
		r.fail(err)
	}
	return r.err
}

// Stats reports events recorded, chunks spilled, and the peak number of
// buffered events.
func (r *SpillRecorder) Stats() RecorderStats { return r.stats }

// --- Streaming analysis ------------------------------------------------

// AnalyzeSource reconstructs dynamic objects and the reference string
// from any event source in a single pass, without materializing the
// trace. Feeding the same events as Analyze produces an identical
// Analysis.
func AnalyzeSource(src Source) (*Analysis, error) {
	an := NewAnalyzer()
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		an.Feed(ev)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	an.SetInstr(src.Instr())
	return an.Finish(), nil
}

// writeUvarint writes one unsigned varint to w.
func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}
