package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// Event constructors for hand-written test streams.
func allocEv(site mem.SiteID, stack mem.StackSig, addr mem.Addr, size uint64) Event {
	return Event{Kind: KindAlloc, Site: site, Stack: stack, Addr: addr, Size: size}
}

func freeEv(addr mem.Addr) Event { return Event{Kind: KindFree, Addr: addr} }

func reallocEv(old, new mem.Addr, size uint64) Event {
	return Event{Kind: KindRealloc, Addr: old, Addr2: new, Size: size}
}

func accessEv(addr mem.Addr, size uint64, write bool) Event {
	return Event{Kind: KindAccess, Addr: addr, Size: size, Write: write}
}

func record() *Trace {
	return &Trace{Events: []Event{
		allocEv(1, 0xabc, 0x1000, 64), // obj1
		accessEv(0x1000, 8, false),
		accessEv(0x1020, 8, true),     // interior access to obj1
		allocEv(1, 0xabc, 0x2000, 32), // obj2, site1 instance 2
		allocEv(2, 0xdef, 0x3000, 16), // obj3
		accessEv(0x2000, 8, false),
		freeEv(0x1000),
		allocEv(2, 0xdef, 0x1000, 48), // obj4 reuses obj1's address
		accessEv(0x1000, 8, false),
		reallocEv(0x3000, 0x4000, 128),
		accessEv(0x4000, 8, true),
	}, Instr: 1234}
}

func TestAnalyzeObjectIdentity(t *testing.T) {
	a := Analyze(record())
	if len(a.Objects) != 4 {
		t.Fatalf("objects = %d, want 4", len(a.Objects))
	}
	o1 := a.Object(1)
	if o1.Site != 1 || o1.Instance != 1 || o1.Size != 64 {
		t.Errorf("obj1 = %+v", o1)
	}
	if o1.Accesses != 2 || o1.Reads != 1 || o1.Writes != 1 {
		t.Errorf("obj1 accesses = %d r=%d w=%d", o1.Accesses, o1.Reads, o1.Writes)
	}
	if o1.FreeAt < 0 {
		t.Error("obj1 should be freed")
	}
	// Address reuse: obj4 lives at obj1's address but is distinct.
	o4 := a.Object(4)
	if o4.Site != 2 || o4.Instance != 2 || o4.Accesses != 1 {
		t.Errorf("obj4 = %+v", o4)
	}
}

func TestAnalyzeRealloc(t *testing.T) {
	a := Analyze(record())
	o3 := a.Object(3)
	if o3.FinalSize != 128 {
		t.Errorf("obj3 final size = %d, want 128", o3.FinalSize)
	}
	if o3.Accesses != 1 {
		t.Errorf("access after realloc not attributed: %d", o3.Accesses)
	}
	if o3.Addr != 0x4000 {
		t.Errorf("obj3 addr = %v", o3.Addr)
	}
}

func TestAnalyzeRefs(t *testing.T) {
	a := Analyze(record())
	want := []mem.ObjectID{1, 1, 2, 4, 3}
	if len(a.Refs) != len(want) {
		t.Fatalf("refs = %v, want %v", a.Refs, want)
	}
	for i, id := range want {
		if a.Refs[i] != id {
			t.Fatalf("refs[%d] = %v, want %v", i, a.Refs[i], id)
		}
	}
	if a.HeapAccesses != 5 || a.TotalAccesses != 5 {
		t.Errorf("accesses: heap=%d total=%d", a.HeapAccesses, a.TotalAccesses)
	}
	if len(a.RefAt) != len(a.Refs) {
		t.Error("RefAt length mismatch")
	}
}

func TestAnalyzeNonHeapAccess(t *testing.T) {
	a := Analyze(&Trace{Events: []Event{
		allocEv(1, 0, 0x1000, 16),
		accessEv(0x9000, 8, false), // no live object there
	}})
	if a.HeapAccesses != 0 || a.TotalAccesses != 1 {
		t.Errorf("heap=%d total=%d", a.HeapAccesses, a.TotalAccesses)
	}
}

// TestAnalyzerReserveIsCapacityOnly: Reserve only sizes the reference
// string. Below, at and above the needed size, before or after feeding
// has started, and on a stream without heap references, the analysis
// DeepEquals the unreserved one.
func TestAnalyzerReserveIsCapacityOnly(t *testing.T) {
	evs := healthEvents(500, 500, 3)
	nonHeap := []Event{{Kind: KindAlloc, Site: 1, Addr: 0x1000, Size: 16}, {Kind: KindAccess, Addr: 0x9000, Size: 8}}
	analyze := func(evs []Event, reserve func(an *Analyzer, fed int)) *Analysis {
		an := NewAnalyzer()
		for i, ev := range evs {
			reserve(an, i)
			an.Feed(ev)
		}
		return an.Finish()
	}
	for _, stream := range []struct {
		name string
		evs  []Event
	}{{"health", evs}, {"non-heap", nonHeap}} {
		want := analyze(stream.evs, func(*Analyzer, int) {})
		need := uint64(len(want.Refs))
		cases := []struct {
			name    string
			at      int
			reserve uint64
		}{
			{"below", 0, need / 2},
			{"at", 0, need},
			{"above", 0, 2*need + 64},
			{"after feeding", len(stream.evs) / 2, need + 64},
		}
		for _, c := range cases {
			got := analyze(stream.evs, func(an *Analyzer, fed int) {
				if fed == c.at {
					an.Reserve(c.reserve)
				}
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Reserve(%d) %s changed the analysis", stream.name, c.reserve, c.name)
			}
		}
	}
}

func TestAnalyzeSiteTables(t *testing.T) {
	a := Analyze(record())
	if a.SiteAllocs[1] != 2 || a.SiteAllocs[2] != 2 {
		t.Errorf("site allocs: %v", a.SiteAllocs)
	}
	if got := a.ObjectBySiteInstance(1, 2); got == nil || got.ID != 2 {
		t.Errorf("ObjectBySiteInstance(1,2) = %v", got)
	}
	if a.ObjectBySiteInstance(1, 3) != nil {
		t.Error("instance 3 should not exist")
	}
	if a.ObjectBySiteInstance(9, 1) != nil {
		t.Error("unknown site should return nil")
	}
}

func TestAnalyzeLiveness(t *testing.T) {
	a := Analyze(record())
	if a.MaxLive != 3 {
		t.Errorf("MaxLive = %d, want 3", a.MaxLive)
	}
	if a.SiteMaxLive[1] != 2 {
		t.Errorf("site1 max live = %d, want 2", a.SiteMaxLive[1])
	}
	if a.Instr != 1234 {
		t.Errorf("instr = %d", a.Instr)
	}
}

func TestObjectLookupBounds(t *testing.T) {
	a := Analyze(record())
	if a.Object(0) != nil || a.Object(5) != nil {
		t.Error("out-of-range object lookup should be nil")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	tr := record()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Instr != tr.Instr || len(got.Events) != len(tr.Events) {
		t.Fatalf("roundtrip mismatch: %d events, instr %d", len(got.Events), got.Instr)
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

// container builds raw container bytes: the magic followed by each
// value as an unsigned varint.
func container(vals ...uint64) []byte {
	buf := []byte(magic)
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

func TestDecodeDoctoredEventCount(t *testing.T) {
	// The header's chunk size and every chunk's event count are untrusted
	// input. A chunk size of 2^40 with a chunk claiming as many events,
	// followed by a truncated body, must fail cleanly without
	// preallocating the claimed amount.
	data := container(version, 1<<40, 1<<40)
	data = append(data, byte(KindFree), 0) // one real event, then EOF
	tr, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("doctored header accepted: %d events", len(tr.Events))
	}
}

func TestDecodeDoctoredCountBoundsPrealloc(t *testing.T) {
	sr, err := NewStreamReader(bytes.NewReader(writeChunked(t, record(), 4)))
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.capHint(); got != 4 {
		t.Errorf("capHint = %d, want the declared chunk size 4", got)
	}
	// A hostile declared chunk size must not drive the hint.
	sr, err = NewStreamReader(bytes.NewReader(container(version, 1<<40)))
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.capHint(); got != maxPreallocEvents {
		t.Errorf("capHint = %d, want cap %d", got, maxPreallocEvents)
	}
	if _, ok := sr.Next(); ok || sr.Err() == nil {
		t.Error("header with no chunk frame decoded an event or ended cleanly")
	}
}

// TestStreamReaderRejectsBadHeaders: only the version SpillRecorder
// writes is accepted. The retired header-counted (1) and indexed-frame (3)
// layouts, and a zero chunk size, fail with an error.
func TestStreamReaderRejectsBadHeaders(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"version 1", v1Header(), "unsupported version 1"},
		{"version 3", v3Header(), "unsupported version 3"},
		{"zero chunk size", container(version, 0), "zero chunk size"},
		{"truncated version", []byte(magic), "reading version"},
		{"truncated chunk size", container(version), "reading chunk size"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewStreamReader(bytes.NewReader(c.data))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
			if _, err := Read(bytes.NewReader(c.data)); err == nil {
				t.Fatal("Read accepted the header")
			}
		})
	}
}

// v1Header is a header-counted version-1 file: instr, event count, then
// one Free event.
func v1Header() []byte {
	return append(container(1, 100, 1), byte(KindFree), 0)
}

// v3Header is an indexed-frame version-3 file: chunk size, then one
// chunk frame with its byte length and four-word decoder pre-state.
func v3Header() []byte {
	return append(container(3, 4, 1, 2, 0, 0, 0, 0), byte(KindFree), 0)
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE whatever"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestEncodeDecodeRandomTraces(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		tr := &Trace{}
		var live []mem.Addr
		addr := mem.Addr(0x1000)
		for i := 0; i < 200; i++ {
			switch rng.Intn(4) {
			case 0:
				tr.Events = append(tr.Events, allocEv(mem.SiteID(rng.Intn(5)+1), mem.StackSig(rng.Uint64()), addr, rng.Uint64n(256)))
				live = append(live, addr)
				addr += 0x100
			case 1:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					tr.Events = append(tr.Events, freeEv(live[i]))
					live = append(live[:i], live[i+1:]...)
				}
			case 2:
				if len(live) > 0 {
					old := live[rng.Intn(len(live))]
					tr.Events = append(tr.Events, reallocEv(old, addr, rng.Uint64n(512)))
					addr += 0x100
				}
			default:
				tr.Events = append(tr.Events, accessEv(mem.Addr(rng.Uint64n(uint64(addr))), 8, rng.Bool(0.5)))
			}
		}
		var buf bytes.Buffer
		if tr.Write(&buf) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestZigzagRoundtrip(t *testing.T) {
	f := func(v uint64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
