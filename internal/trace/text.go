package trace

import (
	"bufio"
	"fmt"
	"io"
)

// WriteText dumps the trace in a line-per-event human-readable form, the
// equivalent of DrCacheSim's text view. Intended for debugging and small
// traces; the binary format is the interchange format.
//
//	alloc   site=3 stack=0x1f addr=0x12340 size=64
//	access  addr=0x12340 size=8 read
//	realloc old=0x12340 new=0x99000 size=128
//	free    addr=0x99000
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace: %d events, %d instructions\n", len(t.Events), t.Instr)
	for i, ev := range t.Events {
		switch ev.Kind {
		case KindAlloc:
			fmt.Fprintf(bw, "%8d alloc   site=%d stack=%#x addr=%#x size=%d\n",
				i, ev.Site, uint64(ev.Stack), uint64(ev.Addr), ev.Size)
		case KindFree:
			fmt.Fprintf(bw, "%8d free    addr=%#x\n", i, uint64(ev.Addr))
		case KindRealloc:
			fmt.Fprintf(bw, "%8d realloc old=%#x new=%#x size=%d\n",
				i, uint64(ev.Addr), uint64(ev.Addr2), ev.Size)
		case KindAccess:
			rw := "read"
			if ev.Write {
				rw = "write"
			}
			fmt.Fprintf(bw, "%8d access  addr=%#x size=%d %s\n",
				i, uint64(ev.Addr), ev.Size, rw)
		default:
			fmt.Fprintf(bw, "%8d ?kind=%d\n", i, ev.Kind)
		}
	}
	return bw.Flush()
}
