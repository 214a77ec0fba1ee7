package adversary_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// TestGreedyCrossRoundReuseIsTransparent runs the same adversarial
// execution twice — once with the persistent shared-cache engine, once
// with a cold engine per round — and demands identical graph choices and
// identical final values: cross-round memoization must be invisible in
// behavior.
func TestGreedyCrossRoundReuseIsTransparent(t *testing.T) {
	m := model.DeafModel(graph.Complete(3))
	inputs := []float64{0, 1, 0.5}
	const rounds = 6

	warm := &adversary.Greedy{Est: valency.NewEstimator(m, 2, true)}
	warmTrace := core.Run(algorithms.Midpoint{}, inputs, warm, rounds)

	cold := core.Func(func(round int, c *core.Config) graph.Graph {
		adv := &adversary.Greedy{Est: valency.NewEstimator(m, 2, true)}
		return adv.Next(round, c)
	})
	coldTrace := core.Run(algorithms.Midpoint{}, inputs, cold, rounds)

	for r := 0; r < rounds; r++ {
		if !warmTrace.Graphs[r].Equal(coldTrace.Graphs[r]) {
			t.Fatalf("round %d: warm adversary played %v, cold played %v",
				r+1, warmTrace.Graphs[r], coldTrace.Graphs[r])
		}
	}
	for i := range warmTrace.Outputs[rounds] {
		if warmTrace.Outputs[rounds][i] != coldTrace.Outputs[rounds][i] {
			t.Fatalf("agent %d final value differs: warm %v, cold %v",
				i, warmTrace.Outputs[rounds][i], coldTrace.Outputs[rounds][i])
		}
	}

	// The warm run must actually have reused its tables across rounds.
	stats := warm.Est.Engine().Stats()
	if stats.LimitHits == 0 && stats.InnerHits == 0 {
		t.Fatalf("persistent engine recorded no cache hits across %d rounds: %+v", rounds, stats)
	}
}

// TestGreedyZeroDiameterFallback pins the fallback ranking: with Settle=0
// no constant continuation ever certifies a limit, every inner bound is
// empty, and the adversary must fall back to maximizing the successor's
// plain value diameter — computed without materializing successor
// configurations, but identical to the materializing reference.
func TestGreedyZeroDiameterFallback(t *testing.T) {
	m := model.DeafModel(graph.Complete(3))
	est := valency.NewEstimator(m, 1, true)
	est.Settle = 0 // kill the inner bound: forces the fallback path
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.5})

	if iv := est.Inner(c); iv.Diameter() != 0 {
		t.Fatalf("precondition failed: inner bound %v should be empty with Settle=0", iv)
	}

	adv := &adversary.Greedy{Est: est}
	got := adv.Next(1, c)

	wantIdx, wantDiam := 0, -1.0
	for k := 0; k < m.Size(); k++ {
		if d := c.Step(m.Graph(k)).Diameter(); d > wantDiam {
			wantIdx, wantDiam = k, d
		}
	}
	if !got.Equal(m.Graph(wantIdx)) {
		t.Fatalf("fallback chose %v, reference ranking chose %v", got, m.Graph(wantIdx))
	}
}

// TestBlockGreedyMatchesStepAllReference checks the scratch-stepping
// block playout against a plain StepAll + reference-walk ranking.
func TestBlockGreedyMatchesStepAllReference(t *testing.T) {
	const n = 4
	blocks := adversary.SigmaBlocks(n)
	var gs []graph.Graph
	for _, b := range blocks {
		gs = append(gs, b...)
	}
	m := model.MustNew(gs...)
	est := valency.NewEstimator(m, 1, true)
	adv, err := adversary.NewBlockGreedy(est, blocks)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []float64{0, 1, 0.25, 0.75}
	c := core.NewConfig(algorithms.AmortizedMidpoint{}, inputs)

	got := adv.Next(1, c)

	refEst := valency.NewEstimator(m, 1, true)
	wantIdx, wantDiam := 0, -1.0
	for k, block := range blocks {
		end := c.StepAll(block)
		if d := refEst.ReferenceInner(end).Diameter(); d > wantDiam {
			wantIdx, wantDiam = k, d
		}
	}
	if wantDiam <= 0 {
		for k, block := range blocks {
			if d := c.StepAll(block).Diameter(); d > wantDiam {
				wantIdx, wantDiam = k, d
			}
		}
	}
	if !got.Equal(blocks[wantIdx][0]) {
		t.Fatalf("block greedy played %v, reference ranking starts block %d with %v",
			got, wantIdx, blocks[wantIdx][0])
	}
}
