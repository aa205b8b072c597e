package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"prefix/internal/mem"
	"prefix/internal/obs"
)

// This file is the streaming half of the trace layer. The in-memory
// *Trace stays the reference implementation, but every consumer that can
// work single-pass goes through the Source/Sink pair so profiling runs
// with tens of millions of events never materialize the whole stream:
//
//	Source — pull iterator over events (in-memory slice, or an
//	         incremental decode of a trace file)
//	Sink   — incremental consumer (in-memory slice, or the chunked
//	         stream writer that spills fixed-size chunks to disk)
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

// Sink is an incremental consumer of an event stream.
type Sink interface {
	// Append adds the next event in trace order.
	Append(Event) error
	// SetInstr records the run's total dynamic instruction count; call
	// it before Close.
	SetInstr(uint64)
	// Close finalizes the stream. No Append may follow.
	Close() error
}

// EventRecorder is the write interface the machine layer feeds during a
// profiled run. *Recorder (in-memory), *SpillRecorder (bounded memory)
// and *Analyzer (analyze while recording, nothing kept) implement it.
type EventRecorder interface {
	Alloc(site mem.SiteID, stack mem.StackSig, addr mem.Addr, size uint64)
	Free(addr mem.Addr)
	Realloc(old, new mem.Addr, size uint64)
	Access(addr mem.Addr, size uint64, write bool)
	AddInstr(n uint64)
}

// BatchRecorder is implemented by recorders that accept events in bulk.
// The machine layer batches its event hand-off and delivers whole
// batches through this when available, so the per-event recording cost
// is an append into the batch rather than an interface dispatch;
// semantics are identical to feeding the events one at a time through
// EventRecorder.
type BatchRecorder interface {
	RecordBatch(evs []Event)
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

// --- In-memory Trace as Source and Sink -------------------------------

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

// Append implements Sink by growing the in-memory slice.
func (t *Trace) Append(ev Event) error {
	t.Events = append(t.Events, ev)
	return nil
}

// SetInstr implements Sink.
func (t *Trace) SetInstr(n uint64) { t.Instr = n }

// Close implements Sink; the in-memory trace needs no finalization.
func (t *Trace) Close() error { return nil }

var (
	_ Sink          = (*Trace)(nil)
	_ EventRecorder = (*Recorder)(nil)
	_ BatchRecorder = (*Recorder)(nil)
	_ BatchRecorder = (*SpillRecorder)(nil)
	_ EventRecorder = (*Analyzer)(nil)
	_ BatchRecorder = (*Analyzer)(nil)
)

// --- Chunked stream writer --------------------------------------------

// DefaultChunkEvents is the default chunk size of the streaming writer
// and the spill recorder: the maximum number of events buffered in
// memory before a chunk is flushed to the backing writer.
const DefaultChunkEvents = 1 << 16

// StreamWriter writes the chunked stream format incrementally. Events
// are encoded into an in-memory chunk as they arrive; when the chunk
// holds chunkEvents events it is framed and flushed, so the writer never
// buffers more than one chunk.
type StreamWriter struct {
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

// NewStreamWriter starts a chunked stream on w. chunkEvents is the
// memory budget in events per chunk; values < 1 select
// DefaultChunkEvents. The stream is invalid until Close succeeds.
func NewStreamWriter(w io.Writer, chunkEvents int) (*StreamWriter, error) {
	if chunkEvents < 1 {
		chunkEvents = DefaultChunkEvents
	}
	sw := &StreamWriter{w: bufio.NewWriter(w), chunkEvents: chunkEvents}
	sw.enc.w = &sw.chunk
	if _, err := sw.w.WriteString(magic); err != nil {
		return nil, err
	}
	if err := writeUvarint(sw.w, version); err != nil {
		return nil, err
	}
	if err := writeUvarint(sw.w, uint64(chunkEvents)); err != nil {
		return nil, err
	}
	return sw, nil
}

func (sw *StreamWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// Append implements Sink: encode the event into the open chunk,
// flushing it when full.
func (sw *StreamWriter) Append(ev Event) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return sw.fail(errors.New("trace: Append after Close"))
	}
	if err := sw.enc.encode(ev); err != nil {
		return sw.fail(err)
	}
	sw.n++
	sw.stats.Events++
	if sw.n > sw.stats.PeakBufferedEvents {
		sw.stats.PeakBufferedEvents = sw.n
	}
	if sw.n >= sw.chunkEvents {
		return sw.flushChunk()
	}
	return nil
}

// AppendBatch encodes a batch of events in order, flushing chunks as
// they fill. It produces byte-for-byte the same stream as appending the
// events one at a time — the delta-encoder state runs continuously and
// chunk boundaries fall at the same event indexes — while hoisting the
// per-event error and lifecycle checks out of the loop. The chunk
// staging buffer is reused across chunks, so steady-state bulk encoding
// allocates nothing.
func (sw *StreamWriter) AppendBatch(evs []Event) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return sw.fail(errors.New("trace: Append after Close"))
	}
	for i := range evs {
		if err := sw.enc.encode(evs[i]); err != nil {
			return sw.fail(err)
		}
		sw.n++
		sw.stats.Events++
		if sw.n > sw.stats.PeakBufferedEvents {
			sw.stats.PeakBufferedEvents = sw.n
		}
		if sw.n >= sw.chunkEvents {
			if err := sw.flushChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushChunk frames and writes the open chunk: its event count, then
// the encoded events.
func (sw *StreamWriter) flushChunk() error {
	if err := writeUvarint(sw.w, uint64(sw.n)); err != nil {
		return sw.fail(err)
	}
	if _, err := sw.chunk.WriteTo(sw.w); err != nil {
		return sw.fail(err)
	}
	sw.chunk.Reset()
	sw.n = 0
	sw.stats.Chunks++
	return nil
}

// SetInstr implements Sink; the count lands in the stream terminator.
func (sw *StreamWriter) SetInstr(n uint64) { sw.instr = n }

// Close flushes the final partial chunk and writes the terminator.
// Close is idempotent; the first error wins.
func (sw *StreamWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return nil
	}
	sw.closed = true
	if sw.n > 0 {
		if err := sw.flushChunk(); err != nil {
			return err
		}
	}
	if err := writeUvarint(sw.w, 0); err != nil {
		return sw.fail(err)
	}
	if err := writeUvarint(sw.w, sw.instr); err != nil {
		return sw.fail(err)
	}
	if err := sw.w.Flush(); err != nil {
		return sw.fail(err)
	}
	return nil
}

// Stats reports what the writer has accepted and spilled so far.
func (sw *StreamWriter) Stats() RecorderStats { return sw.stats }

var _ Sink = (*StreamWriter)(nil)

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
// the file's events. Any version other than the one StreamWriter emits
// is rejected.
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

// --- Spill-to-disk recorder -------------------------------------------

// SpillRecorder is the bounded-memory trace recorder: the machine layer
// feeds it exactly like the in-memory Recorder, but events stream into a
// chunked trace file as chunks fill, so the run's peak trace-buffer
// memory is one chunk regardless of trace length.
//
// The Env recording methods cannot return errors, so a write failure is
// latched: recording becomes a no-op and the error surfaces from Err and
// Close. Callers must Close the recorder (which writes the stream
// terminator) before reading the spill file back.
type SpillRecorder struct {
	sw    *StreamWriter
	instr uint64
}

// NewSpillRecorder starts a spilling recorder over w (typically a temp
// file). chunkEvents bounds the in-memory buffer; values < 1 select
// DefaultChunkEvents.
func NewSpillRecorder(w io.Writer, chunkEvents int) (*SpillRecorder, error) {
	sw, err := NewStreamWriter(w, chunkEvents)
	if err != nil {
		return nil, err
	}
	return &SpillRecorder{sw: sw}, nil
}

// Alloc implements EventRecorder.
func (r *SpillRecorder) Alloc(site mem.SiteID, stack mem.StackSig, addr mem.Addr, size uint64) {
	_ = r.sw.Append(Event{Kind: KindAlloc, Site: site, Stack: stack, Addr: addr, Size: size})
}

// Free implements EventRecorder.
func (r *SpillRecorder) Free(addr mem.Addr) {
	_ = r.sw.Append(Event{Kind: KindFree, Addr: addr})
}

// Realloc implements EventRecorder.
func (r *SpillRecorder) Realloc(old, new mem.Addr, size uint64) {
	_ = r.sw.Append(Event{Kind: KindRealloc, Addr: old, Addr2: new, Size: size})
}

// Access implements EventRecorder.
func (r *SpillRecorder) Access(addr mem.Addr, size uint64, write bool) {
	_ = r.sw.Append(Event{Kind: KindAccess, Addr: addr, Size: size, Write: write})
}

// RecordBatch implements BatchRecorder: the batch bulk-encodes through
// the stream writer, flushing chunks as they fill. Write errors latch
// exactly as on the per-event path.
func (r *SpillRecorder) RecordBatch(evs []Event) {
	_ = r.sw.AppendBatch(evs)
}

// AddInstr implements EventRecorder.
func (r *SpillRecorder) AddInstr(n uint64) { r.instr += n }

// Err returns the first write error, if any.
func (r *SpillRecorder) Err() error { return r.sw.err }

// Close finalizes the spill stream (terminator + instruction count).
func (r *SpillRecorder) Close() error {
	r.sw.SetInstr(r.instr)
	return r.sw.Close()
}

// Stats reports events recorded, chunks spilled, and the peak number of
// buffered events.
func (r *SpillRecorder) Stats() RecorderStats { return r.sw.Stats() }

var _ EventRecorder = (*SpillRecorder)(nil)

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
