package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
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
// configuration. It then drives Exec on both paths: every round's view
// is bitwise equal, an observer returning false stops the run, a
// mid-run cancel returns the context's error, and a zero-round run
// observes round 0 alone and ends at the initial configuration.
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

	// Exec itself, on both paths: execViews records each observed round
	// as its outputs, hull, and the view's configuration (round and
	// outputs), checks the graph played, stops the run after round stop
	// and cancels the context after round cancel.
	execViews := func(alg core.Algorithm, rounds, stop, cancel int) ([][]float64, error) {
		ctx, cancelCtx := context.WithCancel(context.Background())
		defer cancelCtx()
		src := core.Cycle{Graphs: m.Graphs()}
		var views [][]float64
		err := core.Exec(ctx, alg, inputs, src, rounds, func(r int, g graph.Graph, v core.View) bool {
			if r != len(views) {
				t.Fatalf("%s: observed round %d after %d views", alg.Name(), r, len(views))
			}
			if r == 0 && g.N() != 0 || r > 0 && !g.Equal(src.Next(r, nil)) {
				t.Fatalf("%s: round %d observed graph %v", alg.Name(), r, g)
			}
			lo, hi := v.Hull()
			c := v.Config()
			views = append(views, append(append(v.Outputs(), lo, hi, float64(c.Round())), c.Outputs()...))
			if r == cancel {
				cancelCtx()
			}
			return r != stop
		})
		return views, err
	}
	for _, tc := range []struct {
		name                 string
		rounds, stop, cancel int
		views                int
		err                  error
	}{
		{"full", 12, -1, -1, 13, nil},
		{"stopped", 12, 3, -1, 4, nil},
		{"cancelled", 12, -1, 2, 3, context.Canceled},
		{"zero rounds", 0, -1, -1, 1, nil},
	} {
		viewsA, errA := execViews(oracle, tc.rounds, tc.stop, tc.cancel)
		viewsD, errD := execViews(alg, tc.rounds, tc.stop, tc.cancel)
		if errA != tc.err || errD != tc.err {
			t.Fatalf("Exec %s: errors %v (agents), %v (dense), want %v", tc.name, errA, errD, tc.err)
		}
		if len(viewsA) != tc.views || len(viewsD) != tc.views {
			t.Fatalf("Exec %s: %d (agents), %d (dense) views, want %d", tc.name, len(viewsA), len(viewsD), tc.views)
		}
		for r := range viewsA {
			for i := range viewsA[r] {
				if math.Float64bits(viewsA[r][i]) != math.Float64bits(viewsD[r][i]) {
					t.Fatalf("Exec %s: round %d view entry %d: %v (agents) != %v (dense)", tc.name, r, i, viewsA[r][i], viewsD[r][i])
				}
			}
		}
	}
	for _, a := range []core.Algorithm{oracle, alg} {
		final := core.Run(a, inputs, core.Fixed{G: graph.Complete(5)}, 0).Final
		if final.Round() != 0 || !reflect.DeepEqual(final.Outputs(), inputs) {
			t.Fatalf("%T: a zero-round run's Final is at round %d with outputs %v, want the initial configuration", a, final.Round(), final.Outputs())
		}
	}
}

// TestExecDiscardsGraphOfCancelledNext pins that a run never plays the
// graph of a Next during which its context was cancelled: a source that
// searches under the run's context (the valency adversaries) returns an
// arbitrary graph when its search is cut, so Exec must check the context
// after Next. Here the source cancels inside the last round's Next, on
// both paths.
func TestExecDiscardsGraphOfCancelledNext(t *testing.T) {
	for _, alg := range []core.Algorithm{algorithms.Midpoint{}, core.AgentsOnly(algorithms.Midpoint{})} {
		ctx, cancel := context.WithCancel(context.Background())
		src := core.ObliviousFunc(func(round int) graph.Graph {
			if round == 3 {
				cancel()
			}
			return graph.Complete(2)
		})
		last := -1
		err := core.Exec(ctx, alg, []float64{0, 1}, src, 3, func(t int, _ graph.Graph, _ core.View) bool {
			last = t
			return true
		})
		cancel()
		if !errors.Is(err, context.Canceled) || last != 2 {
			t.Fatalf("%s: Exec returned %v after observing round %d, want the cancellation after round 2", alg.Name(), err, last)
		}
	}
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
