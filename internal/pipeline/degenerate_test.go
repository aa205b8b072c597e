package pipeline

import (
	"slices"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/prefix"
	"prefix/internal/workloads"
)

// addrLog is an allocator that records every address its inner
// allocator returns from Malloc and Realloc.
type addrLog struct {
	machine.Allocator
	addrs []mem.Addr
}

func (l *addrLog) Malloc(site mem.SiteID, stack mem.StackSig, size uint64) (mem.Addr, uint64) {
	addr, instr := l.Allocator.Malloc(site, stack, size)
	l.addrs = append(l.addrs, addr)
	return addr, instr
}

func (l *addrLog) Realloc(addr mem.Addr, size uint64) (mem.Addr, uint64) {
	na, instr := l.Allocator.Realloc(addr, size)
	l.addrs = append(l.addrs, na)
	return na, instr
}

// Modelled check instructions the degenerate strategies still pay: the
// region range check on every PreFix free and realloc
// (prefix.regionCheckInstr) and the call-stack signature probe on every
// HALO malloc (baselines.haloCheckInstr).
const (
	prefixRegionCheckInstr = 2
	haloCheckInstr         = 12
)

// TestDegenerateStrategiesMatchBaseline runs three strategies that
// choose nothing on every workload at bench scale: a PreFix plan with no
// instrumented site, HDS with no sites and HALO with no groups. Each
// must hand out the baseline's addresses and give the baseline's
// allocator, cache and TLB counts; the instruction count may differ
// only by the modelled checks, by an exact formula per strategy.
func TestDegenerateStrategiesMatchBaseline(t *testing.T) {
	opt := fastOpt()
	cost := opt.Cache.Cost
	strategies := []struct {
		name  string
		alloc func() machine.Allocator
		extra func(m machine.Metrics) uint64
	}{
		{"prefix", func() machine.Allocator {
			return prefix.NewAllocator(&prefix.Plan{Variant: prefix.VariantHot, SiteCounter: map[mem.SiteID]int{}}, cost)
		}, func(m machine.Metrics) uint64 { return prefixRegionCheckInstr * (m.Frees + m.Reallocs) }},
		{"hds", func() machine.Allocator { return baselines.NewHDS(nil, nil, cost) },
			func(machine.Metrics) uint64 { return 0 }},
		{"halo", func() machine.Allocator { return baselines.NewHALO(baselines.HALOConfig{}, nil, cost) },
			func(m machine.Metrics) uint64 { return haloCheckInstr * m.Mallocs }},
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			base := &addrLog{Allocator: baselines.NewBaseline(cost)}
			want := simulate(spec, opt, base).Metrics
			t.Logf("baseline: %d mallocs, %d frees, %d reallocs", want.Mallocs, want.Frees, want.Reallocs)
			for _, s := range strategies {
				run := &addrLog{Allocator: s.alloc()}
				got := simulate(spec, opt, run).Metrics
				if !slices.Equal(run.addrs, base.addrs) {
					i := 0
					for i < len(run.addrs) && i < len(base.addrs) && run.addrs[i] == base.addrs[i] {
						i++
					}
					t.Errorf("%s: addresses diverge from the baseline's at allocation %d of %d", s.name, i, len(base.addrs))
				}
				if got.Cache != want.Cache {
					t.Errorf("%s: cache counts %+v, baseline %+v", s.name, got.Cache, want.Cache)
				}
				if got.Mallocs != want.Mallocs || got.Frees != want.Frees || got.Reallocs != want.Reallocs || got.MemInstr != want.MemInstr {
					t.Errorf("%s: mallocs/frees/reallocs/mem instr %d/%d/%d/%d, baseline %d/%d/%d/%d", s.name,
						got.Mallocs, got.Frees, got.Reallocs, got.MemInstr, want.Mallocs, want.Frees, want.Reallocs, want.MemInstr)
				}
				extra := s.extra(want)
				if got.Instr != want.Instr+extra || got.AllocInstr != want.AllocInstr+extra {
					t.Errorf("%s: instr %d (alloc %d), want baseline %d (alloc %d) + %d", s.name,
						got.Instr, got.AllocInstr, want.Instr, want.AllocInstr, extra)
				}
			}
		})
	}
}
