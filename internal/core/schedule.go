package core

import (
	"fmt"

	"repro/internal/graph"
)

// Schedule is the schedule-driven PatternSource: it plays a finite prefix
// of graphs and then repeats a loop forever — the "lasso" shape
// rho·lambda^omega in which every ultimately periodic dynamic-network
// schedule can be written. An empty loop repeats the last prefix graph
// forever (Sequence semantics), so finite recorded traces extend to any
// horizon deterministically.
//
// A Schedule is oblivious by construction — the graph of round t is a
// pure function of t — so schedule-driven runs take the dense path and
// batch onto the batched execution plane (per-run schedules included).
type Schedule struct {
	Prefix []graph.Graph
	Loop   []graph.Graph
}

// At returns the graph of the given round (1-based).
func (s Schedule) At(round int) graph.Graph {
	if round < 1 {
		panic(fmt.Sprintf("core: schedule round %d out of range", round))
	}
	t := round - 1
	if t < len(s.Prefix) {
		return s.Prefix[t]
	}
	if len(s.Loop) == 0 {
		if len(s.Prefix) == 0 {
			panic("core: empty schedule")
		}
		return s.Prefix[len(s.Prefix)-1]
	}
	return s.Loop[(t-len(s.Prefix))%len(s.Loop)]
}

// Next implements PatternSource.
func (s Schedule) Next(round int, _ *Config) graph.Graph { return s.At(round) }

// ObliviousSource implements Oblivious.
func (Schedule) ObliviousSource() bool { return true }
