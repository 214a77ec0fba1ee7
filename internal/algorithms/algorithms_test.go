package algorithms_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// convexAlgorithms is the portfolio of convex combination algorithms used
// across the tests.
func convexAlgorithms(n int) []core.Algorithm {
	algs := []core.Algorithm{
		algorithms.Midpoint{},
		algorithms.Mean{},
		algorithms.SelfWeighted{Alpha: 0.5},
		algorithms.AmortizedMidpoint{},
	}
	if n == 2 {
		algs = append(algs, algorithms.TwoThirds{})
	}
	return algs
}

func TestMidpointSingleRound(t *testing.T) {
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 4, 1})
	d := c.Step(graph.Complete(3))
	for i := 0; i < 3; i++ {
		if d.Output(i) != 2 {
			t.Errorf("agent %d: %v, want 2 (= (0+4)/2)", i, d.Output(i))
		}
	}
}

func TestMidpointContractionNonSplit(t *testing.T) {
	// Midpoint halves the diameter per round in any non-split model
	// (Charron-Bost et al.). Check over random non-split patterns.
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{3, 4, 6} {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64()
		}
		src := core.Func(func(int, *core.Config) graph.Graph {
			return graph.RandomNonSplit(rng, n, 0.3)
		})
		tr := core.Run(algorithms.Midpoint{}, inputs, src, 12)
		for round, r := range tr.RoundRatios() {
			if r > 0.5+1e-12 {
				t.Errorf("n=%d round %d: midpoint ratio %v exceeds 1/2 on non-split graph", n, round+1, r)
			}
		}
		if !tr.ValidityHolds(1e-12) {
			t.Errorf("n=%d: midpoint violated validity", n)
		}
	}
}

func TestTwoThirdsContractionExactly(t *testing.T) {
	// Under H0, both agents move to within 1/3 of each other:
	// y0' = y0/3 + 2 y1/3, y1' = y1/3 + 2 y0/3 -> diameter ratio 1/3.
	tr := core.Run(algorithms.TwoThirds{}, []float64{0, 1}, core.Fixed{G: graph.H(0)}, 6)
	for round, r := range tr.RoundRatios() {
		if math.Abs(r-1.0/3.0) > 1e-12 {
			t.Errorf("round %d: two-thirds ratio %v, want exactly 1/3 under H0", round+1, r)
		}
	}
	// Under H1 only agent 1 moves: y1' = y1/3 + 2 y0/3, diameter ratio 1/3.
	tr = core.Run(algorithms.TwoThirds{}, []float64{0, 1}, core.Fixed{G: graph.H(1)}, 6)
	for round, r := range tr.RoundRatios() {
		if math.Abs(r-1.0/3.0) > 1e-12 {
			t.Errorf("round %d: two-thirds ratio %v under H1, want 1/3", round+1, r)
		}
	}
}

// TestTwoThirdsWorstCaseOverAllPatterns exhaustively checks that the
// two-thirds algorithm contracts by exactly 1/3 per round on every pattern
// over {H0, H1, H2} of bounded length — the upper-bound half of the n = 2
// tight bound (Theorem 1 + Algorithm 1).
func TestTwoThirdsWorstCaseOverAllPatterns(t *testing.T) {
	m := model.TwoAgent()
	var walk func(c *core.Config, depth int)
	worst := 0.0
	walk = func(c *core.Config, depth int) {
		if depth == 0 {
			return
		}
		for k := 0; k < m.Size(); k++ {
			d := c.Step(m.Graph(k))
			before := c.Diameter()
			after := d.Diameter()
			if before > 0 {
				if ratio := after / before; ratio > worst {
					worst = ratio
				}
			}
			walk(d, depth-1)
		}
	}
	walk(core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1}), 5)
	if math.Abs(worst-1.0/3.0) > 1e-12 {
		t.Errorf("worst per-round ratio over all length-5 patterns = %v, want 1/3", worst)
	}
}

func TestTwoThirdsPanicsForWrongN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TwoThirds with n=3 did not panic")
		}
	}()
	core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1, 2})
}

func TestMeanOnCompleteGraphAverages(t *testing.T) {
	tr := core.Run(algorithms.Mean{}, []float64{0, 1, 2, 3}, core.Fixed{G: graph.Complete(4)}, 1)
	for i := 0; i < 4; i++ {
		if tr.Outputs[1][i] != 1.5 {
			t.Errorf("agent %d: %v, want 1.5", i, tr.Outputs[1][i])
		}
	}
}

func TestSelfWeightedKeepsValueWhenAlone(t *testing.T) {
	tr := core.Run(algorithms.SelfWeighted{Alpha: 0.3}, []float64{0, 1, 2}, core.Fixed{G: graph.New(3)}, 3)
	for i, v := range []float64{0, 1, 2} {
		if tr.Outputs[3][i] != v {
			t.Errorf("isolated agent %d moved: %v", i, tr.Outputs[3][i])
		}
	}
}

func TestSelfWeightedAlphaValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SelfWeighted alpha > 1 did not panic")
		}
	}()
	algorithms.SelfWeighted{Alpha: 1.5}.NewAgent(0, 3, 0)
}

func TestAmortizedMidpointHalvesPerPhase(t *testing.T) {
	// In any rooted model the amortized midpoint algorithm halves the
	// diameter every n-1 rounds.
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{3, 4, 5, 6} {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64() * 10
		}
		src := core.Func(func(int, *core.Config) graph.Graph {
			return graph.RandomRooted(rng, n, 0.25)
		})
		phases := 6
		tr := core.Run(algorithms.AmortizedMidpoint{}, inputs, src, (n-1)*phases)
		for p := 1; p <= phases; p++ {
			before := tr.DiameterAt((p - 1) * (n - 1))
			after := tr.DiameterAt(p * (n - 1))
			if before > 0 && after/before > 0.5+1e-12 {
				t.Errorf("n=%d phase %d: amortized midpoint phase ratio %v exceeds 1/2",
					n, p, after/before)
			}
		}
		if !tr.ValidityHolds(1e-12) {
			t.Errorf("n=%d: amortized midpoint violated validity", n)
		}
	}
}

func TestAmortizedMidpointWorstCasePsiModel(t *testing.T) {
	// Against the Psi model (rooted), the per-phase ratio must still be
	// at most 1/2 even under an adversarial-ish cyclic pattern.
	n := 6
	src := core.Cycle{Graphs: graph.PsiFamily(n)}
	inputs := []float64{0, 1, 0.5, 0.25, 0.75, 0.1}
	tr := core.Run(algorithms.AmortizedMidpoint{}, inputs, src, (n-1)*8)
	for p := 1; p <= 8; p++ {
		before := tr.DiameterAt((p - 1) * (n - 1))
		after := tr.DiameterAt(p * (n - 1))
		if before > 0 && after/before > 0.5+1e-12 {
			t.Errorf("phase %d ratio %v exceeds 1/2", p, after/before)
		}
	}
}

func TestFlowSumConservesMassAndConverges(t *testing.T) {
	g := graph.Cycle(4) // strongly connected; with self-loops, aperiodic
	alg := algorithms.FlowSumFor(g)
	inputs := []float64{0, 1, 2, 3}
	tr := core.Run(alg, inputs, core.Fixed{G: g}, 200)
	wantSum := 6.0
	for tIdx, ys := range tr.Outputs {
		sum := 0.0
		for _, y := range ys {
			sum += y
		}
		if math.Abs(sum-wantSum) > 1e-9 {
			t.Fatalf("round %d: mass %v, want %v", tIdx, sum, wantSum)
		}
	}
	if tr.DiameterAt(200) > 1e-9 {
		t.Errorf("flow-sum did not converge: final diameter %v", tr.DiameterAt(200))
	}
	// Non-convexity in action: on the star, the center's first update can
	// leave the convex hull of what it received. Verify the algorithm
	// self-reports as non-convex and genuinely violates hull validity on
	// some graph.
	if alg.Convex() {
		t.Error("FlowSum must report Convex() == false")
	}
	star := graph.Star(3, 0)
	tr2 := core.Run(algorithms.FlowSumFor(star), []float64{9, 0, 0}, core.Fixed{G: star}, 1)
	// Center keeps 9/3 = 3; leaves get 3 + own share. Agent 0's new value 3
	// is inside, but mass piles onto leaves: y1 = 9/3 + 0 = 3. All inside
	// hull here; use two rounds where leaf values exceed initial hull of
	// received messages. The cheap check: hull validity of the whole trace
	// against inputs must still hold for mass reasons? It need not; just
	// assert outputs changed non-trivially.
	if tr2.Outputs[1][0] != 3 {
		t.Errorf("star center after one round = %v, want 3", tr2.Outputs[1][0])
	}
}

func TestFlowSumLeavesConvexHullOfReceived(t *testing.T) {
	// Two agents, complete graph, out-degree 2 each. Received fractions at
	// agent 0: {y0/2, y1/2} = {0, 0.5}; new value 0.5 is their sum and lies
	// outside the received-values hull [0, 0.5]? 0.5 is the boundary.
	// Use asymmetric degrees: fixed graph 0->1 (deg(0)=2, deg(1)=1).
	g := graph.MustFromEdges(2, [2]int{0, 1})
	alg := algorithms.FlowSumFor(g)
	c := core.NewConfig(alg, []float64{6, 0})
	d := c.Step(g)
	// Agent 1 receives 6/2 = 3 from agent 0 and 0/1 = 0 from itself; new
	// value 3 = sum, within [0,3] hull. Agent 0 receives only its own 3,
	// new value 3. Total mass preserved at 6.
	if d.Output(0)+d.Output(1) != 6 {
		t.Errorf("mass not conserved: %v", d.Outputs())
	}
	// Run the canonical non-convex witness: cycle with a heavy node; after
	// one round every agent holds the sum of in-shares, which exceeds the
	// max received share whenever two shares arrive — i.e. the update is
	// NOT a convex combination of received values.
	g3 := graph.Cycle(3)
	c3 := core.NewConfig(algorithms.FlowSumFor(g3), []float64{3, 3, 0})
	d3 := c3.Step(g3)
	// Agent 1 hears shares {3/2 (own), 3/2 (from 0)} and sets 3 — strictly
	// above every received share 1.5: outside their convex hull.
	if d3.Output(1) <= 1.5 {
		t.Errorf("expected non-convex update, got %v", d3.Output(1))
	}
}

func TestFlowSumValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FlowSum without degree table did not panic")
		}
	}()
	algorithms.FlowSum{}.NewAgent(0, 2, 1)
}

// TestConvexAlgorithmsSolveAsymptoticConsensusOnRootedModels is the
// integration property: every convex algorithm in the portfolio converges
// to a common value inside the initial hull under random rooted patterns.
func TestConvexAlgorithmsSolveAsymptoticConsensusOnRootedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{2, 3, 5} {
		for _, alg := range convexAlgorithms(n) {
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = rng.Float64()*20 - 10
			}
			src := core.Func(func(int, *core.Config) graph.Graph {
				return graph.RandomRooted(rng, n, 0.5)
			})
			rounds := 60 * n
			tr := core.Run(alg, inputs, src, rounds)
			if d := tr.DiameterAt(rounds); d > 1e-6 {
				t.Errorf("n=%d %s: did not converge, final diameter %v", n, alg.Name(), d)
			}
			if !tr.ValidityHolds(1e-9) {
				t.Errorf("n=%d %s: validity violated", n, alg.Name())
			}
		}
	}
}

// TestConvexityPropertyQuick property-checks that single-round updates of
// convex algorithms stay within the hull of received values, on random
// graphs and inputs.
func TestConvexityPropertyQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		g := graph.Random(r, n, 0.5)
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = r.Float64()*100 - 50
		}
		for _, alg := range convexAlgorithms(n) {
			if n != 2 && alg.Name() == "two-thirds" {
				continue
			}
			c := core.NewConfig(alg, inputs)
			d := c.Step(g)
			for j := 0; j < n; j++ {
				var vals []float64
				for _, i := range g.In(j) {
					vals = append(vals, inputs[i])
				}
				lo, hi := core.Hull(vals)
				y := d.Output(j)
				if y < lo-1e-9 || y > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestCloneIndependenceQuick property-checks that cloned agents evolve
// independently for all algorithms.
func TestCloneIndependenceQuick(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = r.Float64()
		}
		for _, alg := range convexAlgorithms(n) {
			if n != 2 && alg.Name() == "two-thirds" {
				continue
			}
			c := core.NewConfig(alg, inputs)
			cl := c.Clone()
			c2 := c.Step(graph.RandomRooted(r, n, 0.5))
			_ = c2
			for i := 0; i < n; i++ {
				if cl.Output(i) != inputs[i] || c.Output(i) != inputs[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNamesAndConvexFlags(t *testing.T) {
	cases := []struct {
		alg    core.Algorithm
		name   string
		convex bool
	}{
		{algorithms.Midpoint{}, "midpoint", true},
		{algorithms.TwoThirds{}, "two-thirds", true},
		{algorithms.Mean{}, "mean", true},
		{algorithms.SelfWeighted{Alpha: 0.25}, "self-weighted(0.25)", true},
		{algorithms.AmortizedMidpoint{}, "amortized-midpoint", true},
		{algorithms.NewFlowSum([]int{1, 1}), "flow-sum", false},
	}
	for _, tc := range cases {
		if tc.alg.Name() != tc.name {
			t.Errorf("Name = %q, want %q", tc.alg.Name(), tc.name)
		}
		if tc.alg.Convex() != tc.convex {
			t.Errorf("%s: Convex = %v, want %v", tc.name, tc.alg.Convex(), tc.convex)
		}
	}
}

// TestSelfRootKeepsDeclarations pins who declares core.SelfRootKeeper
// and what it answers: Midpoint and TwoThirds declare it, no other
// algorithm does, and core.AgentsOnly declares it exactly when the
// wrapped algorithm does, with the same answers.
func TestSelfRootKeepsDeclarations(t *testing.T) {
	half := math.MaxFloat64 / 2
	for _, tc := range []struct {
		alg     core.Algorithm
		y       float64
		wantOK  bool
		declare bool
	}{
		{algorithms.Midpoint{}, 0.25, true, true},
		{algorithms.Midpoint{}, math.Copysign(0, -1), true, true},
		{algorithms.Midpoint{}, half, true, true},
		{algorithms.Midpoint{}, -half, true, true},
		{algorithms.Midpoint{}, math.Nextafter(half, math.Inf(1)), false, true},
		{algorithms.Midpoint{}, math.MaxFloat64, false, true},
		{algorithms.Midpoint{}, math.Inf(1), false, true},
		{algorithms.Midpoint{}, math.NaN(), false, true},
		{algorithms.TwoThirds{}, math.MaxFloat64, true, true},
		{algorithms.TwoThirds{}, 5e-324, true, true},
		{algorithms.TwoThirds{}, math.Inf(-1), false, true},
		{algorithms.TwoThirds{}, math.NaN(), false, true},
		{algorithms.Mean{}, 0.25, false, false},
		{algorithms.AmortizedMidpoint{}, 0.25, false, false},
		{algorithms.QuantizedMidpoint{Q: 0.5}, 0.25, false, false},
		{algorithms.SelfWeighted{Alpha: 0.5}, 0.25, false, false},
		{algorithms.FlowSum{}, 0.25, false, false},
	} {
		keeper, declared := tc.alg.(core.SelfRootKeeper)
		if declared != tc.declare {
			t.Fatalf("%s: declares SelfRootKeeper = %v, want %v", tc.alg.Name(), declared, tc.declare)
		}
		if declared {
			if ok := keeper.SelfRootKeeps(tc.y); ok != tc.wantOK {
				t.Fatalf("%s.SelfRootKeeps(%v) = %v, want %v", tc.alg.Name(), tc.y, ok, tc.wantOK)
			}
		}
		wrapped, wrappedDeclared := core.AgentsOnly(tc.alg).(core.SelfRootKeeper)
		if wrappedDeclared != tc.declare {
			t.Fatalf("AgentsOnly(%s): declares SelfRootKeeper = %v, want %v", tc.alg.Name(), wrappedDeclared, tc.declare)
		}
		if wrappedDeclared {
			if ok := wrapped.SelfRootKeeps(tc.y); ok != tc.wantOK {
				t.Fatalf("AgentsOnly(%s).SelfRootKeeps(%v) = %v, want %v", tc.alg.Name(), tc.y, ok, tc.wantOK)
			}
		}
	}
}
