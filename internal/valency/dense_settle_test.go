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

// settleCases are model/algorithm/configuration triples covering the
// dense walk — steps, fingerprints, outputs and settles, with and
// without auxiliary planes — on every lower-bound model (Theorems 1–3)
// and under every dense algorithm with a valency use; wrapped in
// core.AgentsOnly they cover the Agent walk, the reference (opaque
// agents built by hand are exercised elsewhere). On the lower-bound
// models every Midpoint limit comes in closed form, so
// noSelfRoot3/midpoint is the case whose limits all go through the
// generic settle loop. The specials cases start from ±0, NaN and ±Inf:
// no hull containing them converges, so their settles fail, and their
// outer hulls carry NaN. The amortized midpoint steps by round (its
// phase), so the walk must carry every node's round into its
// fingerprints and settles.
func settleCases() []struct {
	name   string
	m      *model.Model
	alg    core.Algorithm
	inputs []float64
	convex bool
} {
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	deaf3 := model.DeafModel(graph.Complete(3))
	return []struct {
		name   string
		m      *model.Model
		alg    core.Algorithm
		inputs []float64
		convex bool
	}{
		{"twoagent/twothirds", model.TwoAgent(), algorithms.TwoThirds{}, []float64{0, 1}, true},
		{"deafK3/midpoint", deaf3, algorithms.Midpoint{}, []float64{0, 1, 0.5}, true},
		{"deafK3/amortized", deaf3, algorithms.AmortizedMidpoint{}, []float64{0, 1, 0.5}, true},
		{"deafK4/midpoint", model.DeafModel(graph.Complete(4)), algorithms.Midpoint{}, []float64{0, 1, 0.5, 0.25}, true},
		{"psi5/midpoint", model.PsiModel(5), algorithms.Midpoint{}, []float64{0, 1, 0.5, 0.25, 0.75}, true},
		{"noSelfRoot3/midpoint", noSelfRootModel(), algorithms.Midpoint{}, []float64{0, 1, 0.25}, true},
		{"deafK3/mean", deaf3, algorithms.Mean{}, []float64{0, 1, 0.5}, true},
		{"deafK3/selfweighted", deaf3, algorithms.SelfWeighted{Alpha: 0.25}, []float64{0, 1, 0.5}, true},
		{"deafK3/quantized", deaf3, algorithms.QuantizedMidpoint{Q: 1.0 / 64}, []float64{0, 1, 0.5}, true},
		{"noSelfRoot3/floodroot", noSelfRootModel(), algorithms.FloodRoot{Root: 1}, []float64{0, 1, 0.25}, true},
		{"noSelfRoot3/amortized", noSelfRootModel(), algorithms.AmortizedMidpoint{}, []float64{0, 1, 0.25}, true},
		{"twoagent/twothirds/specials", model.TwoAgent(), algorithms.TwoThirds{}, []float64{-inf, inf}, true},
		{"deafK3/midpoint/specials", deaf3, algorithms.Midpoint{}, []float64{negZero, nan, 0}, true},
		{"deafK3/mean/specials", deaf3, algorithms.Mean{}, []float64{inf, negZero, 0}, true},
		{"deafK3/amortized/specials", deaf3, algorithms.AmortizedMidpoint{}, []float64{negZero, 0, -inf}, true},
		{"noSelfRoot3/midpoint/specials", noSelfRootModel(), algorithms.Midpoint{}, []float64{nan, 0, negZero}, true},
	}
}

// sameBits reports whether two intervals are equal bit for bit, NaN
// endpoints included.
func sameBits(a, b valency.Interval) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) && math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

// sameBitsAll is sameBits over two interval slices.
func sameBitsAll(a, b []valency.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
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
	must(eng.SuccessorInners(bg, core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.25})))
	if s := eng.Stats(); s.LimitMisses == 0 || s.LimitHits == 0 {
		t.Fatalf("want both settles and inherited or cached limits; stats %+v", s)
	}
}

// TestEngineDenseSettleMatchesAgents runs the full valency exploration
// on both paths — the Agent walk through core.AgentsOnly, the dense walk
// by capability — and requires bit-identical intervals, successor
// valencies and successor value diameters: the dense walk must be
// transparent, down to the entries, hits and misses of the three tables
// and the limits inherited down the walk.
func TestEngineDenseSettleMatchesAgents(t *testing.T) {
	for _, tc := range settleCases() {
		t.Run(tc.name, func(t *testing.T) {
			cA := core.NewConfig(core.AgentsOnly(tc.alg), tc.inputs)
			cD := core.NewConfig(tc.alg, tc.inputs)
			for _, depth := range []int{0, 1, 2, 3} {
				p := valency.DefaultParams(depth, tc.convex)
				engA := valency.NewEngine(tc.m, p)
				innerA := must(engA.Inner(bg, cA))
				outerA := must(engA.Outer(bg, cA))
				succA := must(engA.SuccessorInners(bg, cA))
				diamA := engA.SuccessorValueDiameters(cA)

				engD := valency.NewEngine(tc.m, p)
				innerD := must(engD.Inner(bg, cD))
				outerD := must(engD.Outer(bg, cD))
				succD := must(engD.SuccessorInners(bg, cD))
				diamD := engD.SuccessorValueDiameters(cD)

				if !sameBits(innerA, innerD) {
					t.Fatalf("depth %d: Inner differs: agents %v, dense %v", depth, innerA, innerD)
				}
				if !sameBits(outerA, outerD) {
					t.Fatalf("depth %d: Outer differs: agents %v, dense %v", depth, outerA, outerD)
				}
				if !sameBitsAll(succA, succD) {
					t.Fatalf("depth %d: SuccessorInners differ: agents %v, dense %v", depth, succA, succD)
				}
				for k := range diamA {
					if math.Float64bits(diamA[k]) != math.Float64bits(diamD[k]) {
						t.Fatalf("depth %d: SuccessorValueDiameters differ: agents %v, dense %v", depth, diamA, diamD)
					}
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
			got := must(valency.NewEngine(tc.m, p).Inner(bg, core.NewConfig(tc.alg, tc.inputs)))
			want := valency.ReferenceInner(tc.m, p, core.NewConfig(core.AgentsOnly(tc.alg), tc.inputs))
			if !sameBits(got, want) {
				t.Fatalf("dense engine Inner %v differs from naive reference %v", got, want)
			}
			gotOuter := must(valency.NewEngine(tc.m, p).Outer(bg, core.NewConfig(tc.alg, tc.inputs)))
			wantOuter := valency.ReferenceOuter(tc.m, p, core.NewConfig(core.AgentsOnly(tc.alg), tc.inputs))
			if !sameBits(gotOuter, wantOuter) {
				t.Fatalf("dense engine Outer %v differs from naive reference %v", gotOuter, wantOuter)
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
				if okA != okD || math.Float64bits(limA) != math.Float64bits(limD) {
					t.Fatalf("graph %d: limit differs: agents (%v,%v), dense (%v,%v)", k, limA, okA, limD, okD)
				}
			}
		})
	}
}
