package trace

import (
	"reflect"
	"testing"

	"prefix/internal/mem"
)

// fuzzEvents turns fuzz bytes into an event stream over a small address
// space, three bytes per event, so allocations reuse freed addresses,
// reallocs move objects onto each other's slots, and frees and accesses
// regularly name addresses no live object owns.
func fuzzEvents(data []byte) []Event {
	slot := func(b byte) mem.Addr { return 0x1000 + mem.Addr(b%16)*0x40 }
	var evs []Event
	for ; len(data) >= 3; data = data[3:] {
		op, x, y := data[0], data[1], data[2]
		switch op % 8 {
		case 0, 1:
			evs = append(evs, Event{Kind: KindAlloc, Site: mem.SiteID(op%3 + 1), Stack: mem.StackSig(y % 2),
				Addr: slot(x), Size: uint64(y % 0x50)})
		case 2:
			// Every other free names an address between slots: unknown.
			evs = append(evs, Event{Kind: KindFree, Addr: slot(x) + mem.Addr(y%2)*0x20})
		case 3:
			evs = append(evs, Event{Kind: KindRealloc, Addr: slot(x), Addr2: slot(y), Size: uint64(x % 0x50)})
		default:
			evs = append(evs, Event{Kind: KindAccess, Addr: slot(x) + mem.Addr(y%0x48), Size: 8, Write: op%2 == 1})
		}
	}
	return evs
}

// FuzzAnalyzerRecorder: an Analyzer fed as a machine recorder — events
// delivered in fuzz-chosen RecordBatch splits, batches of one included,
// instruction counts added along the way — must produce exactly the
// Analysis that Analyze computes from the materialized trace.
func FuzzAnalyzerRecorder(f *testing.F) {
	// Seeds: alloc/access/free/reuse, realloc chains, unknown frees, and
	// delivery plans of all-batches-of-one, larger batches and mixed.
	f.Add([]byte{0, 1, 10, 4, 1, 3, 2, 1, 0, 0, 1, 20, 5, 1, 7}, []byte{0})
	f.Add([]byte{0, 2, 40, 3, 2, 5, 4, 5, 9, 3, 5, 2, 6, 2, 1, 2, 9, 1}, []byte{0x83, 0x85})
	f.Add([]byte{1, 0, 0, 2, 0, 1, 2, 0, 0, 5, 0, 3, 8, 3, 3}, []byte{1, 0x82, 0, 3})
	f.Add([]byte{0, 1, 2, 0, 2, 2, 0, 3, 2, 4, 1, 4, 4, 2, 4, 4, 3, 4, 2, 1, 0, 2, 2, 0}, []byte{7, 0xff, 2, 0})
	f.Add([]byte{}, []byte{0x80})

	f.Fuzz(func(t *testing.T, data, plan []byte) {
		evs := fuzzEvents(data)
		an := NewAnalyzer()
		var instr uint64
		batch := make([]Event, 0, 16) // reused, as the machine reuses its batch
		peak := 0
		for i, p := 0, 0; i < len(evs); p++ {
			var b byte
			if len(plan) > 0 {
				b = plan[p%len(plan)]
			}
			if b&0x80 != 0 {
				an.AddInstr(uint64(b & 0x7f))
				instr += uint64(b & 0x7f)
			}
			n := min(max(int(b%16), 1), len(evs)-i)
			batch = append(batch[:0], evs[i:i+n]...)
			an.RecordBatch(batch)
			// The analyzer must not keep the caller's buffer.
			for j := range batch {
				batch[j] = Event{Kind: KindFree, Addr: 0x1000}
			}
			i += n
			peak = max(peak, n)
		}

		// A machine reports its instruction count when it finishes.
		an.AddInstr(uint64(len(plan)))
		instr += uint64(len(plan))

		want := Analyze(&Trace{Events: evs, Instr: instr})
		if got := an.Stats(); got != (RecorderStats{Events: uint64(len(evs)), PeakBufferedEvents: peak}) {
			t.Errorf("stats = %+v, want %d events, peak %d", got, len(evs), peak)
		}
		if got := an.Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("recorder analysis differs from Analyze:\n got %+v\nwant %+v", got, want)
		}
	})
}
