package exp

import (
	"math"

	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

func init() {
	register(Experiment{
		ID:    "X/failuremodels",
		Title: "classical failure models generate non-split round graphs",
		Paper: "Section 1, property (i) of non-split graphs",
		Run:   runXFailureModels,
	})
	register(Experiment{
		ID:    "A/adversary",
		Title: "ablation: greedy valency-splitting adversary vs benign schedulers",
		Paper: "proofs of Theorems 1 and 2 (why the adversary is needed)",
		Run:   runAblationAdversary,
	})
	register(Experiment{
		ID:    "A/depth",
		Title: "ablation: valency estimator depth vs bound quality",
		Paper: "Section 3 (valency as execution-tree exploration)",
		Run:   runAblationDepth,
	})
}

func runXFailureModels() *Table {
	t := &Table{
		ID:     "X/failuremodels",
		Title:  "per-round graphs of classical benign failure models",
		Paper:  "Section 1 (i): crashes, send omissions, async minority crashes yield non-split graphs",
		Header: []string{"failure model", "n", "trials", "all non-split", "all rooted", "midpoint worst ratio"},
	}
	type gen struct {
		name string
		make func(n int) graph.Graph
	}
	rng := newRNG(2024)
	gens := []gen{
		{"synchronous crashes", func(n int) graph.Graph {
			// Up to ⌊(n-1)/2⌋ prior crashes plus up to ⌊(n-1)/2⌋ crashing
			// this round, always leaving a correct agent.
			return graph.RandomSynchronousCrashRound(rng, n, (n-1)/2, (n-1)/2)
		}},
		{"send omissions", func(n int) graph.Graph {
			return graph.RandomSendOmissionRound(rng, n, n-1)
		}},
		{"async minority crashes", func(n int) graph.Graph {
			return graph.RandomAsyncMinorityCrashRound(rng, n, (n-1)/2)
		}},
	}
	for _, g := range gens {
		for _, n := range []int{4, 6} {
			const trials = 150
			nonsplit, rooted := true, true
			pool := make([]graph.Graph, 0, trials)
			for trial := 0; trial < trials; trial++ {
				gr := g.make(n)
				nonsplit = nonsplit && gr.IsNonSplit()
				rooted = rooted && gr.IsRooted()
				pool = append(pool, gr)
			}
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = float64(i) / float64(n-1)
			}
			tr := core.Run(algorithms.Midpoint{}, inputs, core.Cycle{Graphs: pool}, trials)
			t.AddRow(g.name, n, trials, nonsplit, rooted, tr.WorstRoundRatio())
		}
	}
	t.Notes = append(t.Notes,
		"non-splitness is what transfers the paper's 1/2 bound (Theorem 2) to these classical systems",
		"midpoint's worst per-round ratio stays at or below 1/2 across all failure models, as [9] guarantees")
	return t
}

func runAblationAdversary() *Table {
	t := &Table{
		ID:     "A/adversary",
		Title:  "δ-floor decay under different schedulers (midpoint, deaf(K3))",
		Paper:  "Theorem 2 proof: only the valency-splitting choice preserves δ(C_t) >= δ(C_0)/2^t",
		Header: []string{"scheduler", "δ-floor after 4 rounds", "2^-4 floor", "holds floor"},
	}
	m := model.DeafModel(graph.Complete(3))
	inputs := []float64{0, 1, 0.5}
	want := math.Pow(0.5, 4)
	run := func(name string, src core.PatternSource) {
		eng := valency.NewEngine(m, valency.DefaultParams(3, true))
		c := core.NewConfig(algorithms.Midpoint{}, inputs)
		for round := 1; round <= 4; round++ {
			c = c.Step(src.Next(round, c))
		}
		floor := deltaLower(eng, c)
		t.AddRow(name, floor, want, floor >= want-1e-6)
	}
	eng := valency.NewEngine(m, valency.DefaultParams(3, true))
	run("greedy (proof adversary)", &adversary.Greedy{Eng: eng})
	run("round-robin", core.Cycle{Graphs: m.Graphs()})
	run("random seed 1", core.RandomFromModel{Model: m, Rng: newRNG(1)})
	run("random seed 2", core.RandomFromModel{Model: m, Rng: newRNG(2)})
	run("constant F_0", core.Fixed{G: m.Graph(0)})
	t.Notes = append(t.Notes,
		"benign schedulers can let δ collapse faster than the floor — the adversary choice in the proof is essential",
		"only rows marked true certify the lower bound; the greedy adversary always does")
	return t
}

func runAblationDepth() *Table {
	t := &Table{
		ID:     "A/depth",
		Title:  "valency interval quality vs exploration depth",
		Paper:  "Section 3: Y*(C) bracketed by execution-tree exploration",
		Header: []string{"config", "depth", "inner δ", "outer δ", "gap"},
	}
	// Case 1: extremes held by agents that can be made deaf ({H_k} model):
	// constant continuations already reach both extremes, so the bracket
	// closes at depth 0 — this is why the Table 1 experiments get away
	// with small depths.
	m2 := model.TwoAgent()
	c2 := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	for _, depth := range []int{0, 2, 4} {
		eng := valency.NewEngine(m2, valency.DefaultParams(depth, true))
		inner := deltaLower(eng, c2)
		outer := deltaUpper(eng, c2)
		t.AddRow("two-thirds/{H_k}, extremes deaf-able", depth, inner, outer, outer-inner)
	}
	// Case 2: extremes held by Psi path agents, which are never deaf —
	// the true valency is strictly smaller than the hull, and the outer
	// bound needs depth to see the contraction while the inner bound needs
	// depth to discover richer reachable limits.
	m5 := model.PsiModel(5)
	c5 := core.NewConfig(algorithms.Midpoint{}, []float64{0.5, 0.5, 0.5, 0, 1})
	for _, depth := range []int{0, 1, 2, 3} {
		eng := valency.NewEngine(m5, valency.DefaultParams(depth, true))
		inner := deltaLower(eng, c5)
		outer := deltaUpper(eng, c5)
		t.AddRow("midpoint/Psi(5), extremes on path", depth, inner, outer, outer-inner)
	}
	t.Notes = append(t.Notes,
		"when every extreme value sits at a deaf-able agent (Lemma 8/13 situations), depth 0 already brackets δ exactly",
		"otherwise outer bounds tighten monotonically with depth; cost grows as |N|^depth")
	return t
}
