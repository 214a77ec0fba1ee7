package exp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// newRNG returns a deterministic RNG for experiment workloads.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func init() {
	register(Experiment{
		ID:    "F1/twoagent",
		Title: "Figure 1 graphs and the n=2 execution-tree δ decay",
		Paper: "Figure 1; proof of Theorem 1 (execution construction, Eq. (2))",
		Run:   runF1,
	})
	register(Experiment{
		ID:    "F2/psi",
		Title: "Figure 2 Psi graphs and Lemma 14 indistinguishability",
		Paper: "Figure 2; Lemma 14; Section 6",
		Run:   runF2,
	})
	register(Experiment{
		ID:    "X/product",
		Title: "substrate check: products of n-1 rooted graphs are non-split",
		Paper: "Section 1 (property (ii), Charron-Bost et al. ICALP'15)",
		Run:   runXProduct,
	})
	register(Experiment{
		ID:    "X/continuity",
		Title: "continuity of the consensus function of convex algorithms",
		Paper: "Theorem 2 (Section 2.2)",
		Run:   runXContinuity,
	})
}

func runF1() *Table {
	t := &Table{
		ID:     "F1/twoagent",
		Title:  "δ(C_t) along the adversarial execution, two-thirds algorithm",
		Paper:  "Figure 1 + Theorem 1: δ(C_t) >= δ(C_0)/3^t",
		Header: []string{"t", "graph played", "inner δ(C_t)", "floor 1/3^t", "floor holds"},
	}
	for k, g := range graph.HFamily() {
		t.Notes = append(t.Notes, fmt.Sprintf("H%d = %v (roots %v)", k, g, graph.SetToNodes(g.RootsSet())))
	}
	m := model.TwoAgent()
	est := valency.NewEstimator(m, 5, true)
	var decisions []adversary.Decision
	adv := &adversary.Greedy{Est: est, Trace: &decisions}
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	t.AddRow(0, "-", est.DeltaLower(c), 1.0, true)
	for round := 1; round <= 7; round++ {
		g := adv.Next(round, c)
		c = c.Step(g)
		floor := math.Pow(1.0/3.0, float64(round))
		inner := est.DeltaLower(c)
		t.AddRow(round, fmt.Sprintf("H%d", m.Index(g)), inner, floor, inner >= floor-1e-6)
	}
	return t
}

func runF2() *Table {
	t := &Table{
		ID:     "F2/psi",
		Title:  "Psi graph structure and sigma-block indistinguishability",
		Paper:  "Figure 2 + Lemma 14: σ_i.C ~_ℓ σ_j.C for ℓ ∉ {i,j}",
		Header: []string{"n", "Psi_i rooted at i only", "deaf trio agent", "Lemma 14 holds (midpoint)", "Lemma 14 holds (amortized)"},
	}
	for _, n := range []int{4, 5, 6, 7, 8} {
		rootedOK, deafOK := true, true
		for i := 0; i < 3; i++ {
			psi := graph.Psi(n, i)
			if !graph.SetsEqual(psi.RootsSet(), graph.NodesToSet(n, []int{i})) {
				rootedOK = false
			}
			if !psi.IsDeaf(i) {
				deafOK = false
			}
		}
		check := func(alg core.Algorithm) bool {
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = float64(i+1) / float64(n)
			}
			c := core.NewConfig(alg, inputs)
			ends := [3]*core.Config{}
			for i := 0; i < 3; i++ {
				ends[i] = c.StepAll(graph.SigmaBlock(n, i))
			}
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					if i == j {
						continue
					}
					for l := 0; l < 3; l++ {
						if l != i && l != j && ends[i].Output(l) != ends[j].Output(l) {
							return false
						}
					}
				}
			}
			return true
		}
		t.AddRow(n, rootedOK, deafOK, check(algorithms.Midpoint{}), check(algorithms.AmortizedMidpoint{}))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("example: Psi(6,0) = %v", graph.Psi(6, 0)),
		"Lemma 14 is what lets the Theorem 3 adversary hide its block choice from the surviving trio agent")
	return t
}

func runXProduct() *Table {
	t := &Table{
		ID:     "X/product",
		Title:  "products of n-1 random rooted graphs are non-split",
		Paper:  "Section 1, property (ii) of non-split graphs (ICALP'15 substrate)",
		Header: []string{"n", "trials", "all products non-split"},
	}
	rng := newRNG(1234)
	for _, n := range []int{3, 4, 5, 6, 7, 8} {
		trials := 200
		ok := true
		for trial := 0; trial < trials; trial++ {
			gs := make([]graph.Graph, n-1)
			for i := range gs {
				gs[i] = graph.RandomRooted(rng, n, 0.3)
			}
			if !graph.ProductAll(gs...).IsNonSplit() {
				ok = false
				break
			}
		}
		t.AddRow(n, trials, ok)
	}
	t.Notes = append(t.Notes,
		"this substrate theorem is why the amortized midpoint halves its range once per n-1 rounds in any rooted model")
	return t
}

func runXContinuity() *Table {
	t := &Table{
		ID:     "X/continuity",
		Title:  "consensus-function continuity: perturbing the pattern tail",
		Paper:  "Theorem 2 (Section 2.2): convex combination algorithms have continuous consensus functions",
		Header: []string{"shared prefix", "|y*(E) - y*(E_s)| (midpoint)", "|y*(E) - y*(E_s)| (mean)"},
	}
	// Reference execution E: cycle through the deaf(K3) graphs. Perturbed
	// executions E_s share a prefix of length s and then switch to a
	// different constant suffix. As s grows, the limits must converge —
	// exactly the ε/3 argument of the paper's proof.
	m := model.DeafModel(graph.Complete(3))
	inputs := []float64{0, 1, 0.4}
	limit := func(alg core.Algorithm, prefix int) (ref, pert float64) {
		refSrc := core.Func(func(round int, _ *core.Config) graph.Graph {
			return m.Graph((round - 1) % m.Size())
		})
		pertSrc := core.Func(func(round int, _ *core.Config) graph.Graph {
			if round <= prefix {
				return m.Graph((round - 1) % m.Size())
			}
			return m.Graph(0) // constant deaf-at-0 suffix
		})
		const rounds = 200
		trRef := core.Run(alg, inputs, refSrc, rounds)
		trPert := core.Run(alg, inputs, pertSrc, rounds)
		refLo, refHi := core.Hull(trRef.Outputs[rounds])
		pertLo, pertHi := core.Hull(trPert.Outputs[rounds])
		return (refLo + refHi) / 2, (pertLo + pertHi) / 2
	}
	for _, prefix := range []int{0, 2, 4, 8, 16, 32} {
		r1, p1 := limit(algorithms.Midpoint{}, prefix)
		r2, p2 := limit(algorithms.Mean{}, prefix)
		t.AddRow(prefix, math.Abs(r1-p1), math.Abs(r2-p2))
	}
	t.Notes = append(t.Notes,
		"distances shrink geometrically with the shared prefix length: the consensus function is continuous",
		"the paper notes non-convex algorithms may have discontinuous consensus functions; convexity is essential")
	return t
}
