package valency_test

import (
	"reflect"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// settleCases are model/algorithm/configuration triples covering dense
// settle loops with and without auxiliary planes on every lower-bound
// model (Theorems 1–3); wrapped in core.AgentsOnly they cover the
// non-dense fallback (opaque agents built by hand are exercised
// elsewhere). On the lower-bound models every Midpoint limit comes in
// closed form, so noSelfRoot3/midpoint is the case whose limits all go
// through the Midpoint settle kernel.
func settleCases() []struct {
	name   string
	m      *model.Model
	alg    core.Algorithm
	inputs []float64
	convex bool
} {
	return []struct {
		name   string
		m      *model.Model
		alg    core.Algorithm
		inputs []float64
		convex bool
	}{
		{"twoagent/twothirds", model.TwoAgent(), algorithms.TwoThirds{}, []float64{0, 1}, true},
		{"deafK3/midpoint", model.DeafModel(graph.Complete(3)), algorithms.Midpoint{}, []float64{0, 1, 0.5}, true},
		{"deafK3/amortized", model.DeafModel(graph.Complete(3)), algorithms.AmortizedMidpoint{}, []float64{0, 1, 0.5}, true},
		{"deafK4/midpoint", model.DeafModel(graph.Complete(4)), algorithms.Midpoint{}, []float64{0, 1, 0.5, 0.25}, true},
		{"psi5/midpoint", model.PsiModel(5), algorithms.Midpoint{}, []float64{0, 1, 0.5, 0.25, 0.75}, true},
		{"noSelfRoot3/midpoint", noSelfRootModel(), algorithms.Midpoint{}, []float64{0, 1, 0.25}, true},
	}
}

// noSelfRootModel returns three rooted non-split graphs on three agents,
// none with an agent that hears only itself, so no limit in it has a
// closed form: K_3 (one receiver row class), the cycle C_3 (three) and
// the graph rooted at the pair {0, 1}, which agent 2 hears through 1
// (two).
func noSelfRootModel() *model.Model {
	return model.MustNew(graph.Complete(3), graph.Cycle(3),
		graph.MustFromEdges(3, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 2}))
}

// TestNoSelfRootModelSettles pins the premise of the noSelfRoot3 cases:
// a Midpoint walk on that model settles limits (misses) and passes them
// down or finds them in the limit table (hits). Closed-form answers
// count as neither, so a model whose limits all came in closed form
// would fail here.
func TestNoSelfRootModelSettles(t *testing.T) {
	m := noSelfRootModel()
	p := valency.DefaultParams(2, true)
	eng := valency.NewEngine(m, p)
	eng.SuccessorInners(core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.25}))
	if s := eng.Stats(); s.LimitMisses == 0 || s.LimitHits == 0 {
		t.Fatalf("want both settles and inherited or cached limits; stats %+v", s)
	}
}

// TestEngineDenseSettleMatchesAgents runs the full valency exploration
// on both paths — the Agent path through core.AgentsOnly, the dense path
// by capability — and requires bit-identical intervals and successor
// valencies: the dense settle loop must be transparent, down to the
// entries, hits and misses of the three tables and the limits inherited
// down the walk.
func TestEngineDenseSettleMatchesAgents(t *testing.T) {
	for _, tc := range settleCases() {
		t.Run(tc.name, func(t *testing.T) {
			cA := core.NewConfig(core.AgentsOnly(tc.alg), tc.inputs)
			cD := core.NewConfig(tc.alg, tc.inputs)
			for _, depth := range []int{0, 1, 2, 3} {
				p := valency.DefaultParams(depth, tc.convex)
				engA := valency.NewEngine(tc.m, p)
				innerA := engA.Inner(cA)
				outerA := engA.Outer(cA)
				succA := engA.SuccessorInners(cA)

				engD := valency.NewEngine(tc.m, p)
				innerD := engD.Inner(cD)
				outerD := engD.Outer(cD)
				succD := engD.SuccessorInners(cD)

				if innerA != innerD {
					t.Fatalf("depth %d: Inner differs: agents %v, dense %v", depth, innerA, innerD)
				}
				if outerA != outerD {
					t.Fatalf("depth %d: Outer differs: agents %v, dense %v", depth, outerA, outerD)
				}
				if !reflect.DeepEqual(succA, succD) {
					t.Fatalf("depth %d: SuccessorInners differ: agents %v, dense %v", depth, succA, succD)
				}
				if statsA, statsD := engA.Stats(), engD.Stats(); statsA != statsD {
					t.Fatalf("depth %d: cache accounting differs:\nagents %+v\ndense  %+v", depth, statsA, statsD)
				}
			}
		})
	}
}

// TestEngineDenseSettleMatchesReference pins the dense-backed engine
// against the retained naive recursion over the Agent path — the
// end-to-end oracle.
func TestEngineDenseSettleMatchesReference(t *testing.T) {
	for _, tc := range settleCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := valency.DefaultParams(2, tc.convex)
			got := valency.NewEngine(tc.m, p).Inner(core.NewConfig(tc.alg, tc.inputs))
			want := valency.ReferenceInner(tc.m, p, core.NewConfig(core.AgentsOnly(tc.alg), tc.inputs))
			if got != want {
				t.Fatalf("dense engine Inner %v differs from naive reference %v", got, want)
			}
		})
	}
}

// TestLimitOfConstantDenseParity compares memoized constant-graph limits
// across the two paths graph by graph, including the cold (uncached)
// path.
func TestLimitOfConstantDenseParity(t *testing.T) {
	for _, tc := range settleCases() {
		t.Run(tc.name, func(t *testing.T) {
			cA := core.NewConfig(core.AgentsOnly(tc.alg), tc.inputs)
			cD := core.NewConfig(tc.alg, tc.inputs)
			for k := 0; k < tc.m.Size(); k++ {
				limA, okA := valency.NewEngine(tc.m, valency.DefaultParams(2, tc.convex)).LimitOfConstant(cA, k)
				limD, okD := valency.NewEngine(tc.m, valency.DefaultParams(2, tc.convex)).LimitOfConstant(cD, k)
				if okA != okD || limA != limD {
					t.Fatalf("graph %d: limit differs: agents (%v,%v), dense (%v,%v)", k, limA, okA, limD, okD)
				}
			}
		})
	}
}
