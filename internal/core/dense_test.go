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

func TestObliviousSources(t *testing.T) {
	m := model.TwoAgent()
	for _, src := range []core.PatternSource{
		core.Fixed{G: graph.Complete(2)},
		core.Cycle{Graphs: m.Graphs()},
		core.Sequence{Graphs: m.Graphs()},
		core.RandomFromModel{Model: m, Rng: rand.New(rand.NewSource(1))},
	} {
		if !core.IsOblivious(src) {
			t.Errorf("%T is not marked oblivious", src)
		}
	}
	adaptive := core.Func(func(round int, c *core.Config) graph.Graph {
		if c.Output(0) > c.Output(1) {
			return graph.Complete(2)
		}
		return graph.New(2)
	})
	if core.IsOblivious(adaptive) {
		t.Error("Func sources must not be oblivious: they may inspect the configuration")
	}
}

// TestRunPathsBitIdentical pins Run's two paths against each other on
// every kind of oblivious source — the Agent path reached through
// AgentsOnly, the dense path by capability — and checks that an adaptive
// source safely takes the Agent path instead of receiving a nil
// configuration.
func TestRunPathsBitIdentical(t *testing.T) {
	var alg core.Algorithm = algorithms.Midpoint{}
	oracle := core.AgentsOnly(alg)
	if _, ok := core.AsDense(oracle); ok {
		t.Fatal("AgentsOnly must hide the dense stepper")
	}
	var st core.DenseState
	if core.NewConfig(oracle, []float64{0, 1}).WriteDense(&st) {
		t.Fatal("an AgentsOnly configuration must not bridge into the dense path")
	}
	if oracle.Name() != alg.Name() || oracle.Convex() != alg.Convex() {
		t.Fatal("AgentsOnly must keep the algorithm's name and convexity")
	}
	inputs := []float64{0, 1, 0.25, 0.75, 0.5}
	m := model.DeafModel(graph.Complete(5))
	newSources := func() []func() core.PatternSource {
		return []func() core.PatternSource{
			func() core.PatternSource { return core.Fixed{G: graph.Deaf(graph.Complete(5), 0)} },
			func() core.PatternSource { return core.Cycle{Graphs: m.Graphs()} },
			func() core.PatternSource {
				return core.RandomFromModel{Model: m, Rng: rand.New(rand.NewSource(5))}
			},
		}
	}
	for _, mk := range newSources() {
		agents := core.Run(oracle, inputs, mk(), 40)
		dense := core.Run(alg, inputs, mk(), 40)
		assertTracesEqual(t, agents, dense)
	}
	// Adaptive source: both must take the Agent path and agree.
	adaptive := func() core.PatternSource {
		return core.Func(func(round int, c *core.Config) graph.Graph {
			if c.Output(0) < c.Output(4) {
				return graph.Deaf(graph.Complete(5), round%5)
			}
			return graph.Complete(5)
		})
	}
	agents := core.Run(oracle, inputs, adaptive(), 20)
	dense := core.Run(alg, inputs, adaptive(), 20)
	assertTracesEqual(t, agents, dense)
}

func assertTracesEqual(t *testing.T, a, b *core.Trace) {
	t.Helper()
	if len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Outputs), len(b.Outputs))
	}
	for round := range a.Outputs {
		for i := range a.Outputs[round] {
			x, y := a.Outputs[round][i], b.Outputs[round][i]
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("round %d agent %d: %v != %v", round, i, x, y)
			}
		}
	}
	for i := 0; i < a.Final.N(); i++ {
		if math.Float64bits(a.Final.Output(i)) != math.Float64bits(b.Final.Output(i)) {
			t.Fatalf("final output %d differs", i)
		}
	}
	if a.Final.Round() != b.Final.Round() {
		t.Fatalf("final rounds differ: %d vs %d", a.Final.Round(), b.Final.Round())
	}
}

func TestDenseStateShape(t *testing.T) {
	st := &core.DenseState{}
	st.Resize(4, 2)
	if st.N() != 4 || st.Planes() != 2 || len(st.Y) != 4 || len(st.Aux) != 8 {
		t.Fatalf("Resize produced unexpected shape: %+v", st)
	}
	p0, p1 := st.Plane(0), st.Plane(1)
	p0[3] = 7
	p1[0] = 9
	if st.Aux[3] != 7 || st.Aux[4] != 9 {
		t.Fatal("planes are not laid out plane-major")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Plane out of range did not panic")
		}
	}()
	st.Plane(2)
}

func TestWriteDenseUnsupported(t *testing.T) {
	// A hand-assembled configuration has no algorithm and must refuse the
	// bridge rather than guess.
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1})
	var st core.DenseState
	if !c.WriteDense(&st) {
		t.Fatal("dense-capable configuration refused WriteDense")
	}
	if st.N() != 2 || st.Round() != 0 {
		t.Fatalf("WriteDense shaped %d agents round %d", st.N(), st.Round())
	}
}
