package exp

import (
	"math/rand"
	"sort"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

func init() {
	register(Experiment{
		ID:    "X/topology",
		Title: "Theorem 4 dichotomy: valency topology vs exact-consensus solvability",
		Paper: "Theorem 4 (Section 7)",
		Run:   runXTopology,
	})
}

// runXTopology makes Theorem 4's dichotomy visible: exact consensus is
// solvable iff some asymptotic consensus algorithm has valencies that are
// singletons or disconnected for every initial configuration.
//
//   - Solvable side: a common-root model with the FloodRoot algorithm —
//     every reachable limit equals the root's input, so the sampled
//     valency is a singleton.
//   - Unsolvable side: {H0,H1,H2} with any convex algorithm — Lemma 21 +
//     the connectedness argument force a nontrivial interval. Sampling
//     limits over random pattern prefixes shows the reachable limits fill
//     the interval: the largest gap between consecutive sampled limits
//     shrinks as the sample grows (a connected set has no persistent gap).
func runXTopology() *Table {
	t := &Table{
		ID:     "X/topology",
		Title:  "sampled valency structure of solvable vs unsolvable models",
		Paper:  "Theorem 4: Y* singleton/disconnected iff exact consensus solvable",
		Header: []string{"model", "algorithm", "samples", "distinct limits", "span", "largest interior gap"},
	}

	// Solvable: FloodRoot on a common-root model.
	solvable := model.MustNew(
		graph.Star(4, 0),
		graph.MustFromEdges(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}),
	)
	limitsS := sampleLimits(solvable, algorithms.FloodRoot{Root: 0}, []float64{0.25, 1, 0, 0.5}, 200, 40)
	t.AddRow("common-root (solvable)", "flood-root(0)", 200, distinct(limitsS), span(limitsS), largestGap(limitsS))

	// Unsolvable: the two-agent model under two different convex
	// algorithms; the limits fill [0, 1].
	unsolvable := model.TwoAgent()
	for _, alg := range []core.Algorithm{algorithms.TwoThirds{}, algorithms.Midpoint{}} {
		limitsU := sampleLimits(unsolvable, alg, []float64{0, 1}, 600, 12)
		t.AddRow("{H0,H1,H2} (unsolvable)", alg.Name(), 600, distinct(limitsU), span(limitsU), largestGap(limitsU))
	}

	t.Notes = append(t.Notes,
		"solvable + exact algorithm: one distinct limit — a singleton valency, as Theorem 4's (⇒) direction constructs",
		"unsolvable: hundreds of distinct limits spanning [0,1] with shrinking gaps — a connected nontrivial valency, Theorem 4's (⇐) contradiction witness",
		"limits are sampled as random pattern prefixes followed by constant-graph tails (genuine members of Y*)")
	return t
}

// sampleLimits draws random pattern prefixes of the given length and
// finishes each with a constant-graph tail, returning the sampled
// reachable limits (sorted).
func sampleLimits(m *model.Model, alg core.Algorithm, inputs []float64, samples, prefixLen int) []float64 {
	rng := rand.New(rand.NewSource(424242))
	eng := valency.NewEngine(m, valency.DefaultParams(0, alg.Convex()))
	var out []float64
	for s := 0; s < samples; s++ {
		c := core.NewConfig(alg, inputs)
		for r := 0; r < prefixLen; r++ {
			c = c.Step(m.Graph(rng.Intn(m.Size())))
		}
		if limit, ok := eng.LimitOfConstant(c, rng.Intn(m.Size())); ok {
			out = append(out, limit)
		}
	}
	sort.Float64s(out)
	return out
}

func distinct(sorted []float64) int {
	const tol = 1e-9
	count := 0
	for i, v := range sorted {
		if i == 0 || v-sorted[i-1] > tol {
			count++
		}
	}
	return count
}

func span(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1] - sorted[0]
}

func largestGap(sorted []float64) float64 {
	gap := 0.0
	for i := 1; i < len(sorted); i++ {
		if g := sorted[i] - sorted[i-1]; g > gap {
			gap = g
		}
	}
	return gap
}
