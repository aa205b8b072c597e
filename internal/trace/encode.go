package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"prefix/internal/mem"
)

// Binary trace file format: the PFXT container, version 2 (all integers
// unsigned varints):
//
//	magic "PFXT" | version=2 | chunkSize |
//	  chunk*: eventCount (1..chunkSize) | events... |
//	  terminator: 0 | instr
//
// Each event starts with a tag byte (Kind, with the high bit carrying the
// Write flag for accesses) followed by kind-specific fields. Addresses are
// delta-encoded against the previous address of the same kind to keep files
// compact — profiling traces reach tens of millions of events. The delta
// state runs continuously across chunk boundaries. Chunking bounds what
// either end holds in memory to one chunk, so a file can be written and
// read incrementally (see stream.go); the instruction count sits in the
// terminator because a spilling recorder only learns it when the run
// finishes. No other container version is written or read.
const (
	magic   = "PFXT"
	version = 2
)

// maxPreallocEvents caps how many Events Read preallocates from the
// untrusted header's chunk size: a corrupt or hostile file can claim
// 2⁶⁴, so the initial allocation is bounded and the slice grows only as
// real events actually decode.
const maxPreallocEvents = 1 << 16

// eventEncoder encodes events with per-kind address delta compression.
// Its state must run continuously over the whole stream (chunk framing
// does not reset it).
type eventEncoder struct {
	w        *bytes.Buffer // the open chunk
	prevAddr [5]uint64     // previous address per kind, for delta encoding
	buf      [binary.MaxVarintLen64]byte
}

func (e *eventEncoder) putUvarint(v uint64) error {
	n := binary.PutUvarint(e.buf[:], v)
	_, err := e.w.Write(e.buf[:n])
	return err
}

// encode writes one event.
func (e *eventEncoder) encode(ev Event) error {
	if ev.Kind < KindAlloc || ev.Kind > KindAccess {
		return fmt.Errorf("trace: cannot encode event of kind %d", ev.Kind)
	}
	tag := byte(ev.Kind)
	if ev.Kind == KindAccess && ev.Write {
		tag |= 0x80
	}
	if err := e.w.WriteByte(tag); err != nil {
		return err
	}
	delta := uint64(ev.Addr) - e.prevAddr[ev.Kind]
	e.prevAddr[ev.Kind] = uint64(ev.Addr)
	if err := e.putUvarint(zigzag(delta)); err != nil {
		return err
	}
	switch ev.Kind {
	case KindAlloc:
		if err := e.putUvarint(uint64(ev.Site)); err != nil {
			return err
		}
		if err := e.putUvarint(uint64(ev.Stack)); err != nil {
			return err
		}
		return e.putUvarint(ev.Size)
	case KindRealloc:
		if err := e.putUvarint(uint64(ev.Addr2)); err != nil {
			return err
		}
		return e.putUvarint(ev.Size)
	case KindAccess:
		return e.putUvarint(ev.Size)
	}
	return nil // KindFree: address only
}

// eventDecoder mirrors eventEncoder; i is the running event index, used
// only for error messages.
type eventDecoder struct {
	br       *bufio.Reader
	prevAddr [5]uint64
}

func (d *eventDecoder) decode(i uint64) (Event, error) {
	tag, err := d.br.ReadByte()
	if err != nil {
		return Event{}, fmt.Errorf("trace: event %d: %w", i, err)
	}
	var ev Event
	ev.Kind = Kind(tag & 0x7f)
	if ev.Kind < KindAlloc || ev.Kind > KindAccess {
		return Event{}, fmt.Errorf("trace: event %d: bad kind %d", i, ev.Kind)
	}
	ev.Write = tag&0x80 != 0
	zd, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Event{}, err
	}
	d.prevAddr[ev.Kind] += unzigzag(zd)
	ev.Addr = mem.Addr(d.prevAddr[ev.Kind])
	switch ev.Kind {
	case KindAlloc:
		site, err := binary.ReadUvarint(d.br)
		if err != nil {
			return Event{}, err
		}
		ev.Site = mem.SiteID(site)
		stack, err := binary.ReadUvarint(d.br)
		if err != nil {
			return Event{}, err
		}
		ev.Stack = mem.StackSig(stack)
		if ev.Size, err = binary.ReadUvarint(d.br); err != nil {
			return Event{}, err
		}
	case KindRealloc:
		a2, err := binary.ReadUvarint(d.br)
		if err != nil {
			return Event{}, err
		}
		ev.Addr2 = mem.Addr(a2)
		if ev.Size, err = binary.ReadUvarint(d.br); err != nil {
			return Event{}, err
		}
	case KindAccess:
		if ev.Size, err = binary.ReadUvarint(d.br); err != nil {
			return Event{}, err
		}
	}
	return ev, nil
}

// Write serializes the trace as a chunked stream of DefaultChunkEvents
// events per chunk, through the same SpillRecorder a recorded run
// writes with, so a run spilled at that chunk size yields the same
// bytes.
func (t *Trace) Write(w io.Writer) error {
	r, err := NewSpillRecorder(w, DefaultChunkEvents)
	if err != nil {
		return err
	}
	r.RecordBatch(t.Events)
	r.AddInstr(t.Instr)
	return r.Close()
}

// Read materializes a trace file written by Write or by a SpillRecorder.
// It is the in-memory convenience over NewStreamReader; use the stream
// reader directly to stay within a bounded event buffer.
func Read(r io.Reader) (*Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{}
	t.Events = make([]Event, 0, sr.capHint())
	for {
		ev, ok := sr.Next()
		if !ok {
			break
		}
		t.Events = append(t.Events, ev)
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	t.Instr = sr.Instr()
	return t, nil
}

// zigzag maps a two's-complement delta to an unsigned value with small
// magnitudes near zero, so varints stay short for both directions.
func zigzag(d uint64) uint64 {
	s := int64(d)
	return uint64(s<<1) ^ uint64(s>>63)
}

func unzigzag(z uint64) uint64 {
	return uint64(int64(z>>1) ^ -int64(z&1))
}
