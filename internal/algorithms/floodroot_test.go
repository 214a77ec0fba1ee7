package algorithms_test

import (
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// rootedAtSource samples a random graph guaranteed to have the given
// common root (root gets a random spanning arborescence on top of random
// edges).
func rootedAt(rng *rand.Rand, n, root int) graph.Graph {
	b := graph.NewBuilder(n)
	// Random extra edges.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.2 {
				b.Edge(i, j)
			}
		}
	}
	// A random arborescence from root: connect each node to a previously
	// connected one.
	order := rng.Perm(n)
	// Move root to front.
	for k, v := range order {
		if v == root {
			order[0], order[k] = order[k], order[0]
			break
		}
	}
	for k := 1; k < n; k++ {
		parent := order[rng.Intn(k)]
		b.Edge(parent, order[k])
	}
	return b.Graph()
}

func TestFloodRootExactConsensusWithinNMinusOneRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, n := range []int{2, 4, 7} {
		root := rng.Intn(n)
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64()
		}
		src := core.Func(func(int, *core.Config) graph.Graph {
			return rootedAt(rng, n, root)
		})
		tr := core.Run(algorithms.FloodRoot{Root: root}, inputs, src, n-1)
		for i := 0; i < n; i++ {
			if got := tr.Outputs[n-1][i]; got != inputs[root] {
				t.Errorf("n=%d: agent %d ended at %v, want root value %v", n, i, got, inputs[root])
			}
		}
		if d := tr.DiameterAt(n - 1); d != 0 {
			t.Errorf("n=%d: diameter %v after n-1 rounds, want exact 0", n, d)
		}
	}
}

// TestFloodRootWorstCasePath checks the n-1 bound is attained: on the
// directed path rooted at 0, the value needs exactly n-1 rounds.
func TestFloodRootWorstCasePath(t *testing.T) {
	n := 6
	inputs := []float64{42, 0, 0, 0, 0, 0}
	tr := core.Run(algorithms.FloodRoot{Root: 0}, inputs, core.Fixed{G: graph.PathGraph(n)}, n-1)
	for tt := 0; tt < n-1; tt++ {
		if tr.DiameterAt(tt) == 0 {
			t.Errorf("converged at round %d, before the worst-case n-1 = %d", tt, n-1)
		}
	}
	if tr.DiameterAt(n-1) != 0 {
		t.Errorf("not converged after n-1 rounds")
	}
}

func TestFloodRootValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range root accepted")
		}
	}()
	algorithms.FloodRoot{Root: 5}.NewAgent(0, 3, 0)
}

// TestFloodRootContractionZeroCell ties the algorithm to the Table 1
// claim: a common-root model is exact-consensus solvable, its proven
// bound is 0, and FloodRoot realizes contraction 0 (exact agreement in
// finitely many rounds).
func TestFloodRootContractionZeroCell(t *testing.T) {
	m := model.MustNew(
		graph.Star(4, 0),
		graph.MustFromEdges(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}),
		graph.MustFromEdges(4, [2]int{0, 2}, [2]int{2, 1}, [2]int{0, 3}),
	)
	if !m.ExactConsensusSolvable() {
		t.Fatal("common-root model should be exact-consensus solvable")
	}
	if b := m.ContractionLowerBound(); b.Rate != 0 {
		t.Fatalf("bound = %v, want 0", b.Rate)
	}
	for k := 0; k < m.Size(); k++ {
		if m.Graph(k).RootsSet()[0]&1 == 0 {
			t.Fatalf("agent 0 should be a root of graph %d", k)
		}
	}
	// Exhaust all patterns of length n-1 = 3 over the model: exact
	// agreement on agent 0's input in every one of them.
	inputs := []float64{7, 1, 2, 3}
	var walk func(c *core.Config, depth int)
	walk = func(c *core.Config, depth int) {
		if depth == 0 {
			for i := 0; i < 4; i++ {
				if c.Output(i) != 7 {
					t.Fatalf("agent %d at %v after 3 rounds", i, c.Output(i))
				}
			}
			return
		}
		for k := 0; k < m.Size(); k++ {
			walk(c.Step(m.Graph(k)), depth-1)
		}
	}
	walk(core.NewConfig(algorithms.FloodRoot{Root: 0}, inputs), 3)
}
