package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

func TestNewConfigInitialState(t *testing.T) {
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.5})
	if c.N() != 3 || c.Round() != 0 {
		t.Fatalf("N=%d Round=%d, want 3, 0", c.N(), c.Round())
	}
	want := []float64{0, 1, 0.5}
	for i, v := range want {
		if c.Output(i) != v {
			t.Errorf("Output(%d) = %v, want %v", i, c.Output(i), v)
		}
	}
	if got := c.Diameter(); got != 1 {
		t.Errorf("Diameter = %v, want 1", got)
	}
}

func TestStepDoesNotMutateReceiver(t *testing.T) {
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1})
	d := c.Step(graph.Complete(2))
	if c.Round() != 0 || c.Output(0) != 0 || c.Output(1) != 1 {
		t.Error("Step mutated its receiver")
	}
	if d.Round() != 1 {
		t.Errorf("successor round = %d, want 1", d.Round())
	}
	if d.Output(0) != 0.5 || d.Output(1) != 0.5 {
		t.Errorf("midpoint step on K2: outputs %v, want [0.5 0.5]", d.Outputs())
	}
}

func TestStepRespectsGraph(t *testing.T) {
	// Under H1 (only 0 -> 1): agent 0 hears itself only and keeps 0;
	// agent 1 hears both and moves to the midpoint 0.5.
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1})
	d := c.Step(graph.H(1))
	if d.Output(0) != 0 || d.Output(1) != 0.5 {
		t.Errorf("H1 step: outputs %v, want [0 0.5]", d.Outputs())
	}
	// Identity graph: nobody moves (midpoint of own value).
	e := c.Step(graph.New(2))
	if e.Output(0) != 0 || e.Output(1) != 1 {
		t.Errorf("identity step: outputs %v, want [0 1]", e.Outputs())
	}
}

func TestStepPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Step with wrong graph size did not panic")
		}
	}()
	core.NewConfig(algorithms.Midpoint{}, []float64{0, 1}).Step(graph.Complete(3))
}

func TestCloneIsDeep(t *testing.T) {
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1})
	cl := c.Clone()
	d := cl.Step(graph.Complete(2))
	_ = d
	if c.Output(0) != 0 || cl.Output(0) != 0 {
		t.Error("Clone shares state with original")
	}
	if !c.IndistinguishableFor(0, cl) || !c.IndistinguishableFor(1, cl) {
		t.Error("clone should be indistinguishable from original for all agents")
	}
}

func TestStepAll(t *testing.T) {
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1})
	d := c.StepAll([]graph.Graph{graph.H(1), graph.H(2), graph.H(0)})
	if d.Round() != 3 {
		t.Errorf("StepAll round = %d, want 3", d.Round())
	}
	// Manual: H1: (0, .5); H2: (0.25, .5); H0: (0.375, 0.375).
	if math.Abs(d.Output(0)-0.375) > 1e-15 || math.Abs(d.Output(1)-0.375) > 1e-15 {
		t.Errorf("StepAll outputs %v, want [0.375 0.375]", d.Outputs())
	}
}

// TestStepInPlaceMatchesStep property-checks the fast path against the
// persistent path on random graphs, algorithms, and inputs.
func TestStepInPlaceMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64()
		}
		algs := []core.Algorithm{algorithms.Midpoint{}, algorithms.Mean{}, algorithms.AmortizedMidpoint{}}
		alg := algs[rng.Intn(len(algs))]
		persistent := core.NewConfig(alg, inputs)
		inplace := core.NewConfig(alg, inputs)
		for round := 0; round < 6; round++ {
			g := graph.Random(rng, n, 0.4)
			persistent = persistent.Step(g)
			inplace.StepInPlace(g)
			for i := 0; i < n; i++ {
				if persistent.Output(i) != inplace.Output(i) {
					t.Fatalf("trial %d round %d agent %d: %v vs %v",
						trial, round, i, persistent.Output(i), inplace.Output(i))
				}
			}
			if persistent.Round() != inplace.Round() {
				t.Fatalf("round counters diverged")
			}
		}
	}
}

// TestFrameworkDeterminism: identical algorithm, inputs, and pattern give
// bit-identical traces — the determinism assumption of the paper's model
// (Section 2) that the whole valency machinery rests on.
func TestFrameworkDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 5
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = rng.Float64()
	}
	pat := make([]graph.Graph, 20)
	for i := range pat {
		pat[i] = graph.RandomRooted(rng, n, 0.4)
	}
	for _, alg := range []core.Algorithm{algorithms.Midpoint{}, algorithms.AmortizedMidpoint{}, algorithms.Mean{}} {
		a := core.Run(alg, inputs, core.Sequence{Graphs: pat}, 20)
		b := core.Run(alg, inputs, core.Sequence{Graphs: pat}, 20)
		for tIdx := range a.Outputs {
			for i := 0; i < n; i++ {
				if a.Outputs[tIdx][i] != b.Outputs[tIdx][i] {
					t.Fatalf("%s: nondeterministic at round %d agent %d", alg.Name(), tIdx, i)
				}
			}
		}
	}
}

func TestDiameterAndHull(t *testing.T) {
	if core.Diameter(nil) != 0 {
		t.Error("Diameter(nil) != 0")
	}
	if core.Diameter([]float64{3}) != 0 {
		t.Error("Diameter singleton != 0")
	}
	if core.Diameter([]float64{-1, 4, 2}) != 5 {
		t.Error("Diameter([-1,4,2]) != 5")
	}
	lo, hi := core.Hull([]float64{2, -3, 7})
	if lo != -3 || hi != 7 {
		t.Errorf("Hull = [%v, %v], want [-3, 7]", lo, hi)
	}
}

func TestPatternSources(t *testing.T) {
	h0, h1, h2 := graph.H(0), graph.H(1), graph.H(2)
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1})

	if g := (core.Fixed{G: h1}).Next(5, c); !g.Equal(h1) {
		t.Error("Fixed returned wrong graph")
	}
	cyc := core.Cycle{Graphs: []graph.Graph{h0, h1, h2}}
	for round, want := range map[int]graph.Graph{1: h0, 2: h1, 3: h2, 4: h0} {
		if g := cyc.Next(round, c); !g.Equal(want) {
			t.Errorf("Cycle round %d: got %v want %v", round, g, want)
		}
	}
	seq := core.Sequence{Graphs: []graph.Graph{h1, h2}}
	if g := seq.Next(1, c); !g.Equal(h1) {
		t.Error("Sequence round 1 wrong")
	}
	if g := seq.Next(9, c); !g.Equal(h2) {
		t.Error("Sequence should repeat its last graph")
	}
	m := model.TwoAgent()
	rnd := core.RandomFromModel{Model: m, Rng: rand.New(rand.NewSource(3))}
	for i := 0; i < 20; i++ {
		if !m.Contains(rnd.Next(i+1, c)) {
			t.Fatal("RandomFromModel left the model")
		}
	}
	fn := core.Func(func(round int, _ *core.Config) graph.Graph {
		if round%2 == 0 {
			return h0
		}
		return h1
	})
	if !fn.Next(2, c).Equal(h0) || !fn.Next(3, c).Equal(h1) {
		t.Error("Func source wrong")
	}
}

func TestRunTraceMidpointOnComplete(t *testing.T) {
	tr := core.Run(algorithms.Midpoint{}, []float64{0, 1, 0.5}, core.Fixed{G: graph.Complete(3)}, 5)
	if tr.Rounds() != 5 {
		t.Fatalf("Rounds = %d, want 5", tr.Rounds())
	}
	if tr.DiameterAt(0) != 1 {
		t.Errorf("initial diameter %v, want 1", tr.DiameterAt(0))
	}
	// On the complete graph the midpoint algorithm converges in one round.
	if tr.DiameterAt(1) != 0 {
		t.Errorf("diameter after one K3 round = %v, want 0", tr.DiameterAt(1))
	}
	if !tr.ValidityHolds(0) {
		t.Error("midpoint violated validity")
	}
}

func TestTraceMetricsOnKnownDecay(t *testing.T) {
	// Midpoint under the constant graph H1: agent 1 moves halfway to agent
	// 0 every round; diameter halves each round.
	tr := core.Run(algorithms.Midpoint{}, []float64{0, 1}, core.Fixed{G: graph.H(1)}, 8)
	ratios := tr.RoundRatios()
	for i, r := range ratios {
		if math.Abs(r-0.5) > 1e-12 {
			t.Errorf("round %d ratio = %v, want 0.5", i+1, r)
		}
	}
	if gr := tr.GeometricRate(); math.Abs(gr-0.5) > 1e-12 {
		t.Errorf("GeometricRate = %v, want 0.5", gr)
	}
	if w := tr.WorstRoundRatio(); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("WorstRoundRatio = %v, want 0.5", w)
	}
	diams := tr.Diameters()
	if len(diams) != 9 || diams[0] != 1 || math.Abs(diams[8]-1.0/256) > 1e-15 {
		t.Errorf("Diameters = %v", diams)
	}
}

func TestGeometricRateDegenerate(t *testing.T) {
	// Zero initial diameter -> rate 0 by convention.
	tr := core.Run(algorithms.Midpoint{}, []float64{1, 1}, core.Fixed{G: graph.Complete(2)}, 3)
	if tr.GeometricRate() != 0 {
		t.Error("GeometricRate on zero-diameter run should be 0")
	}
	// Exact convergence -> rate 0 by convention.
	tr2 := core.Run(algorithms.Midpoint{}, []float64{0, 1}, core.Fixed{G: graph.Complete(2)}, 3)
	if tr2.GeometricRate() != 0 {
		t.Error("GeometricRate after exact convergence should be 0")
	}
}
