package core

import (
	"context"
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

// RunBatch steps B runs of one dense algorithm in lock-step for the given
// number of rounds, drawing per-run graphs from per-run oblivious pattern
// sources (srcs[i] drives run i), and returns the runner positioned after
// the last round. Rounds in which every source plays the same graph take
// the shared-segmentation fast path automatically.
//
// It is the batch counterpart of RunCtx for schedule-driven
// workloads: a scenario sweep is one RunBatch call instead of B round
// loops. Every source must be oblivious (it is handed a nil Config);
// non-oblivious sources are a programmer error and panic.
func RunBatch(ctx context.Context, alg DenseAlgorithm, inputs [][]float64, srcs []PatternSource, rounds int) (*BatchRunner, error) {
	if len(srcs) != len(inputs) {
		panic(fmt.Sprintf("core: %d sources for %d batch runs", len(srcs), len(inputs)))
	}
	for i, src := range srcs {
		if !obliviousSource(src) {
			panic(fmt.Sprintf("core: RunBatch source %d is not oblivious", i))
		}
	}
	if rounds < 0 {
		panic(fmt.Sprintf("core: negative round count %d", rounds))
	}
	r := NewBatchRunner(alg, inputs)
	gs := make([]graph.Graph, len(srcs))
	done := ctx.Done()
	for t := 1; t <= rounds; t++ {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		for i, src := range srcs {
			gs[i] = src.Next(t, nil)
		}
		r.StepEach(gs)
	}
	r.FlushMetrics()
	return r, nil
}
