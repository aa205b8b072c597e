package pipeline

import (
	"testing"

	"prefix/internal/mem"
	"prefix/internal/prefix"
	"prefix/internal/workloads"
)

// liveCheck wraps the PreFix runtime and tracks, independently of it,
// which region addresses are live. It fails the test when the runtime
// hands out a region address that is still live.
type liveCheck struct {
	*prefix.Allocator
	t      *testing.T
	what   string
	live   map[mem.Addr]bool
	served uint64 // region placements seen
}

func (c *liveCheck) Malloc(site mem.SiteID, stack mem.StackSig, size uint64) (mem.Addr, uint64) {
	addr, instr := c.Allocator.Malloc(site, stack, size)
	c.take(addr)
	return addr, instr
}

func (c *liveCheck) Free(addr mem.Addr) uint64 {
	delete(c.live, addr)
	return c.Allocator.Free(addr)
}

func (c *liveCheck) Realloc(addr mem.Addr, size uint64) (mem.Addr, uint64) {
	na, instr := c.Allocator.Realloc(addr, size)
	if na != addr {
		delete(c.live, addr)
		c.take(na)
	}
	return na, instr
}

func (c *liveCheck) take(addr mem.Addr) {
	if !c.Region().Contains(addr) {
		return
	}
	if c.live[addr] {
		c.t.Fatalf("%s: region address %v handed out while still live", c.what, addr)
	}
	c.live[addr] = true
	c.served++
}

// TestRecyclingNeverServesLiveSlot runs every workload's three variant
// plans at bench scale under liveCheck: no static or ring slot may be
// handed out again before the object in it is freed or moved out.
func TestRecyclingNeverServesLiveSlot(t *testing.T) {
	opt := fastOpt()
	var recycled uint64
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := CollectProfile(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			vp, err := placeVariants(name, opt, prof, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range opt.Variants {
				c := &liveCheck{
					Allocator: prefix.NewAllocator(vp.plans[v], opt.Cache.Cost),
					t:         t, what: name + " " + v.String(),
					live: make(map[mem.Addr]bool),
				}
				simulate(spec, opt, c)
				if got := c.Capture().MallocsAvoided; c.served != got {
					t.Errorf("%s: saw %d region placements, runtime counts %d", c.what, c.served, got)
				}
				recycled += c.Capture().RecycledCaptured
			}
		})
	}
	if recycled == 0 {
		t.Error("no workload recycled a ring slot; the check covered no reuse")
	}
}
