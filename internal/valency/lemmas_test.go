package valency_test

import (
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// TestLemma5DiameterRealizingPair machine-checks Lemma 5: there exist two
// successor configurations G.C, H.C whose valency union realizes the full
// diameter of Y*(C). With interval estimates: the union of the two best
// successors' inner intervals must span (up to tolerance) the inner
// interval of C.
func TestLemma5DiameterRealizingPair(t *testing.T) {
	cases := []struct {
		name string
		m    *model.Model
		alg  core.Algorithm
		in   []float64
	}{
		{"two-thirds/H", model.TwoAgent(), algorithms.TwoThirds{}, []float64{0, 1}},
		{"midpoint/deafK3", model.DeafModel(graph.Complete(3)), algorithms.Midpoint{}, []float64{0, 1, 0.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := valency.NewEngine(tc.m, valency.DefaultParams(3, true))
			c := core.NewConfig(tc.alg, tc.in)
			parent := must(eng.Inner(bg, c))
			inners := must(eng.SuccessorInners(bg, c))
			best := 0.0
			for i := range inners {
				for j := i; j < len(inners); j++ {
					if d := inners[i].Union(inners[j]).Diameter(); d > best {
						best = d
					}
				}
			}
			if best < parent.Diameter()-1e-6 {
				t.Errorf("no successor pair spans δ(C): best union %v vs parent %v", best, parent.Diameter())
			}
		})
	}
}

// TestLemma20AlphaWitnessIntersection machine-checks Lemma 20: whenever
// G alpha_{N,K} H, the valencies of G.C and H.C intersect. The inner
// estimates witness the intersection (they only contain genuine limits).
func TestLemma20AlphaWitnessIntersection(t *testing.T) {
	m := model.DeafModel(graph.Complete(3))
	eng := valency.NewEngine(m, valency.DefaultParams(3, true))
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.5})
	inners := must(eng.SuccessorInners(bg, c))
	eps := 100 * eng.Params().Tol
	checked := 0
	for i := 0; i < m.Size(); i++ {
		for j := i + 1; j < m.Size(); j++ {
			related := false
			for k := 0; k < m.Size(); k++ {
				if model.AlphaRelated(m.Graph(i), m.Graph(j), m.Graph(k)) {
					related = true
					break
				}
			}
			if !related {
				continue
			}
			checked++
			if !inners[i].Expand(eps).Intersects(inners[j]) {
				t.Errorf("alpha-related successors %d,%d have disjoint valencies %v vs %v",
					i, j, inners[i], inners[j])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no alpha-related pair found; deaf model should have them all (D=1)")
	}
	// In deaf(G) every pair is one-step alpha-related (D = 1): all pairs
	// must have been checked.
	if want := m.Size() * (m.Size() - 1) / 2; checked != want {
		t.Errorf("checked %d pairs, want all %d", checked, want)
	}
}

// TestTheorem5ChainIntersections combines the two: along a Lemma 24
// alpha-chain in the AsyncChain model, consecutive successor valencies
// intersect — the inequality chain behind Theorem 5's (15).
func TestTheorem5ChainIntersections(t *testing.T) {
	m, err := model.AsyncChain(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := valency.DefaultParams(0, true)
	p.Settle = 256
	eng := valency.NewEngine(m, p)
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.5, 0.25})
	inners := must(eng.SuccessorInners(bg, c))
	eps := 1e-6
	pairs, intersecting := 0, 0
	for i := 0; i < m.Size(); i++ {
		for j := i + 1; j < m.Size(); j++ {
			related := false
			for k := 0; k < m.Size(); k++ {
				if model.AlphaRelated(m.Graph(i), m.Graph(j), m.Graph(k)) {
					related = true
					break
				}
			}
			if !related {
				continue
			}
			pairs++
			if inners[i].Expand(eps).Intersects(inners[j]) {
				intersecting++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("AsyncChain should contain alpha-related pairs")
	}
	if intersecting != pairs {
		t.Errorf("%d of %d alpha-related successor pairs intersect; Lemma 20 demands all", intersecting, pairs)
	}
}
