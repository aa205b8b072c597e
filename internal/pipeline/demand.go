package pipeline

import (
	"fmt"
	"strings"
)

// Strategies is a set of the allocation strategies a Comparison can
// simulate on its evaluation input.
type Strategies uint8

const (
	// StrategyBaseline is the unmodified allocator.
	StrategyBaseline Strategies = 1 << iota
	// StrategyHDS is the HDS baseline; demanding it also mines the
	// Sequitur streams its sites come from.
	StrategyHDS
	// StrategyHALO is the HALO baseline.
	StrategyHALO
	// StrategyPreFix is every configured PreFix variant: placed, and
	// evaluated once per distinct plan behaviour.
	StrategyPreFix

	// AllStrategies is the full demand.
	AllStrategies = StrategyBaseline | StrategyHDS | StrategyHALO | StrategyPreFix
)

var strategyNames = [...]string{"baseline", "hds", "halo", "prefix"}

// String joins the set's strategy names with "+"; the empty set is
// "none".
func (s Strategies) String() string {
	var names []string
	for i, n := range strategyNames {
		if s&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, "+")
}

// Demand is the set of strategies an evaluation simulates. It is stored
// as the strategies left out, so the zero Demand — that of Options{},
// DefaultOptions() and a hand-built Comparison — is the full demand.
type Demand struct{ omit Strategies }

// Demanding returns the demand that simulates exactly s.
func Demanding(s Strategies) Demand { return Demand{omit: AllStrategies &^ s} }

// Strategies returns the demanded strategies.
func (d Demand) Strategies() Strategies { return AllStrategies &^ d.omit }

// Has reports whether every strategy in s is demanded.
func (d Demand) Has(s Strategies) bool { return d.omit&s == 0 }

func (d Demand) String() string { return d.Strategies().String() }

// Need returns an error naming the strategies of s that c did not
// simulate, and nil when all of them ran. Every reader of a strategy's
// results calls it first, so a strategy that did not run is an error,
// never a zero value.
func (c *Comparison) Need(s Strategies) error {
	if missing := s &^ c.Ran.Strategies(); missing != 0 {
		return fmt.Errorf("pipeline: %s: %s not simulated (the comparison ran %s)", c.Benchmark, missing, c.Ran)
	}
	return nil
}
