package valency_test

import (
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

func TestIntervalBasics(t *testing.T) {
	a := valency.Interval{Lo: 0, Hi: 1}
	b := valency.Interval{Lo: 0.5, Hi: 2}
	c := valency.Interval{Lo: 3, Hi: 4}
	if a.Diameter() != 1 {
		t.Errorf("Diameter = %v, want 1", a.Diameter())
	}
	if !a.Intersects(b) || a.Intersects(c) {
		t.Error("Intersects wrong")
	}
	if u := a.Union(c); u.Lo != 0 || u.Hi != 4 {
		t.Errorf("Union = %v", u)
	}
	if !a.Contains(0.5) || a.Contains(1.5) {
		t.Error("Contains wrong")
	}
	empty := valency.Interval{Lo: 1, Hi: 0}
	if !empty.Empty() || empty.Diameter() != 0 {
		t.Error("empty interval misbehaves")
	}
	if u := empty.Union(a); u != a {
		t.Errorf("empty union = %v, want %v", u, a)
	}
	if empty.Intersects(a) || a.Intersects(empty) {
		t.Error("empty should intersect nothing")
	}
	if empty.String() != "∅" || a.String() != "[0, 1]" {
		t.Errorf("String: %q %q", empty.String(), a.String())
	}
}

// TestLemma8InitialValency machine-checks Lemma 8: when every agent is
// deaf in some model graph, δ(C_0) equals the diameter of the initial
// values. The inner estimate must witness the full initial spread and the
// outer bound must not exceed it. Under the algorithms that declare
// core.SelfRootKeeper each deaf agent's limit is its value, exact, so
// Inner is the value hull bit for bit; Mean settles, within 1e-6.
func TestLemma8InitialValency(t *testing.T) {
	cases := []struct {
		name   string
		m      *model.Model
		alg    core.Algorithm
		inputs []float64
	}{
		{"two-thirds/H", model.TwoAgent(), algorithms.TwoThirds{}, []float64{0, 1}},
		{"midpoint/H", model.TwoAgent(), algorithms.Midpoint{}, []float64{0, 1}},
		{"midpoint/deafK3", model.DeafModel(graph.Complete(3)), algorithms.Midpoint{}, []float64{0, 1, 0.25}},
		{"mean/deafK4", model.DeafModel(graph.Complete(4)), algorithms.Mean{}, []float64{0, 0.5, 1, 0.75}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := valency.NewEngine(tc.m, valency.DefaultParams(3, true))
			c0 := core.NewConfig(tc.alg, tc.inputs)
			want := core.Diameter(tc.inputs)
			inner := must(eng.Inner(bg, c0))
			outer := must(eng.Outer(bg, c0))
			if _, exact := tc.alg.(core.SelfRootKeeper); exact {
				if lo, hi := core.Hull(tc.inputs); inner != (valency.Interval{Lo: lo, Hi: hi}) {
					t.Errorf("inner Y*(C0) = %v, want the value hull [%v, %v] exactly (Lemma 8)", inner, lo, hi)
				}
			} else if math.Abs(inner.Diameter()-want) > 1e-6 {
				t.Errorf("inner δ(C0) = %v, want %v (Lemma 8)", inner.Diameter(), want)
			}
			if outer.Diameter() > want+1e-9 {
				t.Errorf("outer δ(C0) = %v exceeds initial diameter %v", outer.Diameter(), want)
			}
			if inner.Lo < outer.Lo-1e-9 || inner.Hi > outer.Hi+1e-9 {
				t.Errorf("inner %v not contained in outer %v", inner, outer)
			}
		})
	}
}

// TestLemma8AtEveryNode extends Lemma 8 down the execution tree: in a
// model where every agent is deaf in some graph, Inner(C) is the value
// hull of C bit for bit at every node to depth 3, since each deaf agent's
// limit is its exact value and every other limit stays in the hull.
func TestLemma8AtEveryNode(t *testing.T) {
	cases := []struct {
		name   string
		m      *model.Model
		alg    core.Algorithm
		inputs []float64
	}{
		{"twoagent/two-thirds", model.TwoAgent(), algorithms.TwoThirds{}, []float64{0, 1}},
		{"twoagent/midpoint", model.TwoAgent(), algorithms.Midpoint{}, []float64{0.3, -0.7}},
		{"deaf:3/midpoint", model.DeafModel(graph.Complete(3)), algorithms.Midpoint{}, []float64{0, 1, 0.25}},
		{"deaf:4/midpoint", model.DeafModel(graph.Complete(4)), algorithms.Midpoint{}, []float64{0.1, 0.9, 0.6, 0.35}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := valency.NewEngine(tc.m, valency.DefaultParams(2, true))
			var walk func(c *core.Config, depth int)
			walk = func(c *core.Config, depth int) {
				if lo, hi := c.Hull(); must(eng.Inner(bg, c)) != (valency.Interval{Lo: lo, Hi: hi}) {
					t.Fatalf("round %d, values %v: Inner %v is not the value hull [%v, %v]", c.Round(), c.Outputs(), must(eng.Inner(bg, c)), lo, hi)
				}
				if depth > 0 {
					for _, g := range tc.m.Graphs() {
						walk(c.Step(g), depth-1)
					}
				}
			}
			walk(core.NewConfig(tc.alg, tc.inputs), 3)
		})
	}
}

// TestLemma7SuccessorIntersections machine-checks Lemma 7's conclusion on
// the two-agent model: the valencies of the successors H0.C and H1.C
// intersect (agent 1 has identical in-neighborhoods in H0 and H1, and is
// deaf in H2); symmetrically for H0.C and H2.C. Witnessed via inner
// bounds, which only contain genuine limits.
func TestLemma7SuccessorIntersections(t *testing.T) {
	m := model.TwoAgent()
	for _, alg := range []core.Algorithm{algorithms.TwoThirds{}, algorithms.Midpoint{}} {
		eng := valency.NewEngine(m, valency.DefaultParams(4, true))
		c := core.NewConfig(alg, []float64{0, 1})
		inners := must(eng.SuccessorInners(bg, c))
		// Endpoints carry the estimator tolerance; the true valencies touch
		// exactly (e.g. at 1/3 for the two-thirds algorithm), so compare
		// with a small expansion.
		eps := 100 * eng.Params().Tol
		if !inners[0].Expand(eps).Intersects(inners[1]) {
			t.Errorf("%s: Y*(H0.C) and Y*(H1.C) should intersect: %v vs %v",
				alg.Name(), inners[0], inners[1])
		}
		if !inners[0].Expand(eps).Intersects(inners[2]) {
			t.Errorf("%s: Y*(H0.C) and Y*(H2.C) should intersect: %v vs %v",
				alg.Name(), inners[0], inners[2])
		}
	}
}

// TestLemma4Covering checks Lemma 4's covering property through the
// interval lens: the union of successor outer bounds contains the inner
// bound of C (since Y*(C) = ∪_G Y*(G.C)).
func TestLemma4Covering(t *testing.T) {
	m := model.DeafModel(graph.Complete(3))
	eng := valency.NewEngine(m, valency.DefaultParams(3, true))
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.5})
	inner := must(eng.Inner(bg, c))
	union := valency.Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
	for k := 0; k < m.Size(); k++ {
		union = union.Union(must(eng.Outer(bg, c.Step(m.Graph(k)))))
	}
	if inner.Lo < union.Lo-1e-6 || inner.Hi > union.Hi+1e-6 {
		t.Errorf("inner %v escapes successor-union %v", inner, union)
	}
}

func TestOuterPanicsForNonConvex(t *testing.T) {
	m := model.TwoAgent()
	eng := valency.NewEngine(m, valency.DefaultParams(2, false))
	defer func() {
		if recover() == nil {
			t.Error("Outer on non-convex estimator did not panic")
		}
	}()
	must(eng.Outer(bg, core.NewConfig(algorithms.Midpoint{}, []float64{0, 1})))
}

func TestLimitOfConstant(t *testing.T) {
	m := model.TwoAgent()
	eng := valency.NewEngine(m, valency.DefaultParams(0, true))
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	// Constant H1: agent 0 deaf, limit = 0. Constant H2: limit = 1.
	// Constant H0: symmetric averaging, limit = 1/2.
	for k, want := range map[int]float64{1: 0, 2: 1, 0: 0.5} {
		got, ok := eng.LimitOfConstant(c, k)
		if !ok {
			t.Fatalf("constant H%d did not converge", k)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("constant H%d limit = %v, want %v", k, got, want)
		}
	}
}

func TestLimitOfConstantNonConverging(t *testing.T) {
	// An identity graph never contracts; the continuation must report !ok.
	m := model.MustNew(graph.New(2))
	p := valency.DefaultParams(0, true)
	p.Settle = 50
	eng := valency.NewEngine(m, p)
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1})
	if _, ok := eng.LimitOfConstant(c, 0); ok {
		t.Error("identity continuation should not converge")
	}
	// Inner over a model with no converging continuation is empty.
	if iv := must(eng.Inner(bg, c)); !iv.Empty() {
		t.Errorf("inner over identity-only model = %v, want empty", iv)
	}
}

// TestLemma21InitialValencyWithoutDeafGraphs machine-checks Lemma 21 on a
// model where no agent is ever deaf (so Lemma 8 does not apply): in any
// model where exact consensus is unsolvable, some step initial
// configuration C_0^(k) has δ(C_0) >= Δ/n.
func TestLemma21InitialValencyWithoutDeafGraphs(t *testing.T) {
	m, err := model.AsyncChain(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExactConsensusSolvable() {
		t.Fatal("AsyncChain(4,1) should be unsolvable")
	}
	for _, g := range m.Graphs() {
		for i := 0; i < 4; i++ {
			if g.IsDeaf(i) {
				t.Fatalf("unexpected deaf agent %d in %v", i, g)
			}
		}
	}
	eng := valency.NewEngine(m, valency.DefaultParams(1, true))
	const delta = 1.0
	best := 0.0
	// The Lemma 21 construction: step inputs y_i = Δ for i < k, 0 else.
	for k := 0; k <= 4; k++ {
		inputs := make([]float64, 4)
		for i := 0; i < k; i++ {
			inputs[i] = delta
		}
		c := core.NewConfig(algorithms.Midpoint{}, inputs)
		if d := must(eng.DeltaLower(bg, c)); d > best {
			best = d
		}
	}
	if best < delta/4-1e-6 {
		t.Errorf("max step-configuration δ(C_0) = %v below Δ/n = %v (Lemma 21)", best, delta/4)
	}
}

// TestDeltaShrinksAlongExecutions checks the paper's observation that
// δ(C_t) -> 0 in every execution (by Convergence + Agreement): outer
// bounds along a run shrink toward zero.
func TestDeltaShrinksAlongExecutions(t *testing.T) {
	m := model.TwoAgent()
	eng := valency.NewEngine(m, valency.DefaultParams(4, true))
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	prev := must(eng.DeltaUpper(bg, c))
	for round := 1; round <= 8; round++ {
		c = c.Step(graph.H(round % 3))
		cur := must(eng.DeltaUpper(bg, c))
		if cur > prev+1e-12 {
			t.Errorf("round %d: δ upper grew from %v to %v", round, prev, cur)
		}
		prev = cur
	}
	if prev > 0.05 {
		t.Errorf("δ upper after 8 rounds still %v", prev)
	}
}

// TestDepthTightensOuter checks monotonicity of the outer bound in Depth.
func TestDepthTightensOuter(t *testing.T) {
	m := model.TwoAgent()
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	prev := math.Inf(1)
	for depth := 0; depth <= 5; depth++ {
		eng := valency.NewEngine(m, valency.DefaultParams(depth, true))
		d := must(eng.DeltaUpper(bg, c))
		if d > prev+1e-12 {
			t.Errorf("depth %d: outer δ %v exceeds shallower %v", depth, d, prev)
		}
		prev = d
	}
}
