package valency_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/consensus"
	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// lowerBoundRun is one of the paper's lower-bound executions: a greedy
// adversary (Theorems 1 and 2) or the block adversary (Theorem 3)
// against an algorithm, ranking successors on one valency engine.
type lowerBoundRun struct {
	name  string
	m     *model.Model
	alg   core.Algorithm
	depth int
	block bool
}

func lowerBoundRuns() []lowerBoundRun {
	return []lowerBoundRun{
		{"twoagent/twothirds", model.TwoAgent(), algorithms.TwoThirds{}, 4, false},
		{"deaf3/midpoint", model.DeafModel(graph.Complete(3)), algorithms.Midpoint{}, 4, false},
		{"deaf4/midpoint", model.DeafModel(graph.Complete(4)), algorithms.Midpoint{}, 3, false},
		{"psi5/midpoint", model.PsiModel(5), algorithms.Midpoint{}, 3, true},
	}
}

// play runs r for the given rounds from inputs with its adversary on eng,
// returning the trace and the greedy decisions (nil for the block
// adversary, whose choices show in the trace's graphs).
func (r lowerBoundRun) play(t *testing.T, eng *valency.Engine, inputs []float64, rounds int) (*core.Trace, []adversary.Decision) {
	t.Helper()
	est := valency.EstimatorFromEngine(eng)
	if r.block {
		adv, err := adversary.NewBlockGreedy(est, adversary.SigmaBlocks(r.m.N()))
		if err != nil {
			t.Fatal(err)
		}
		return core.Run(r.alg, inputs, adv, rounds), nil
	}
	var decisions []adversary.Decision
	return core.Run(r.alg, inputs, &adversary.Greedy{Est: est, Trace: &decisions}, rounds), decisions
}

// TestEvictionIsTransparentToLowerBounds runs every lower-bound execution
// of the benchmark twice, on an engine whose tables evict every few
// inserts and on a default engine, and requires bit-identical adversary
// decisions, successor valency intervals, played graphs and final
// outputs: memoized values are pure functions of their keys, so eviction
// may only move the cache counters. Each run must also meet the paper's
// bound, a geometric contraction rate at least the model's proven lower
// bound (Theorems 1–3).
func TestEvictionIsTransparentToLowerBounds(t *testing.T) {
	const rounds = 12
	rng := rand.New(rand.NewSource(0))
	for _, r := range lowerBoundRuns() {
		t.Run(r.name, func(t *testing.T) {
			// A random affine image of the maximally spread inputs keeps
			// the initial valency diameter equal to the value diameter.
			inputs := consensus.SpreadInputs(r.m.N())
			lo, scale := rng.Float64(), 0.5+rng.Float64()
			for i := range inputs {
				inputs[i] = lo + scale*inputs[i]
			}
			p := valency.DefaultParams(r.depth, r.alg.Convex())
			tiny := valency.NewTinyEngine(r.m, p)
			got, gotDecisions := r.play(t, tiny, inputs, rounds)
			want, wantDecisions := r.play(t, valency.NewEngine(r.m, p), inputs, rounds)

			if tiny.Evictions() == 0 {
				t.Fatalf("the tiny engine never evicted; stats %+v", tiny.Stats())
			}
			if !reflect.DeepEqual(gotDecisions, wantDecisions) {
				t.Fatalf("decisions differ under eviction:\n tiny    %v\n default %v", gotDecisions, wantDecisions)
			}
			for i := range want.Graphs {
				if !got.Graphs[i].Equal(want.Graphs[i]) {
					t.Fatalf("round %d: played %v under eviction, %v by default", i+1, got.Graphs[i], want.Graphs[i])
				}
			}
			if !reflect.DeepEqual(got.Outputs[rounds], want.Outputs[rounds]) {
				t.Fatalf("final outputs differ: tiny %v, default %v", got.Outputs[rounds], want.Outputs[rounds])
			}
			bound := r.m.ContractionLowerBound()
			if rate := want.GeometricRate(); rate < bound.Rate-1e-9 {
				t.Fatalf("geometric rate %v below the %s bound %v", rate, bound.Theorem, bound.Rate)
			}
		})
	}
}

// TestEngineMemoizesPastItsBudget is the regression test for the
// saturation cliff: once more distinct entries went through the limit
// table than it can hold, a settle from a fresh configuration must still
// be stored, so asking for the same limit again settles nothing. A table
// that stopped inserting when full would settle it twice. (A fresh walk's
// limit hits would prove nothing: inheritance supplies them without the
// table.)
func TestEngineMemoizesPastItsBudget(t *testing.T) {
	p := valency.DefaultParams(4, true)
	p.Workers = 1
	eng := valency.NewEngine(model.TwoAgent(), p)
	walk := func(i int) {
		eng.Inner(core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1 + float64(i)}))
	}
	// Every limit miss stores its key, and every key takes a slot of at
	// least 32 bytes, so this many misses overflow the table.
	capacity := uint64(valency.MemoBudget / 32)
	i := 0
	for ; eng.Stats().LimitMisses <= capacity; i++ {
		walk(i)
	}
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1 + float64(i)})
	before := eng.Stats()
	eng.LimitOfConstant(c, 0)
	settled := eng.Stats()
	eng.LimitOfConstant(c, 0)
	after := eng.Stats()
	if settled.LimitMisses != before.LimitMisses+1 {
		t.Fatalf("a fresh configuration's limit was not settled; before %+v, after %+v", before, settled)
	}
	if after.LimitMisses != settled.LimitMisses {
		t.Fatalf("after %d limit misses, a settled limit was settled again; stats %+v", before.LimitMisses, after)
	}
}

// TestEngineSharedAcrossAlgorithms pins the fallback for an engine shared
// by two algorithms, whose keys differ in their agents' type tags and in
// length: every bound equals the one a dedicated engine computes, with
// and without eviction.
func TestEngineSharedAcrossAlgorithms(t *testing.T) {
	m := model.DeafModel(graph.Complete(3))
	p := valency.DefaultParams(3, true)
	inputs := []float64{0, 1, 0.5}
	for _, shared := range []*valency.Engine{valency.NewEngine(m, p), valency.NewTinyEngine(m, p)} {
		for rep := 0; rep < 2; rep++ {
			for _, alg := range []core.Algorithm{algorithms.Midpoint{}, algorithms.AmortizedMidpoint{}} {
				c := core.NewConfig(alg, inputs)
				own := valency.NewEngine(m, p)
				if got, want := shared.Inner(c), own.Inner(c); got != want {
					t.Fatalf("%s rep %d: shared Inner %v, dedicated %v", alg.Name(), rep, got, want)
				}
				if got, want := shared.Outer(c), own.Outer(c); got != want {
					t.Fatalf("%s rep %d: shared Outer %v, dedicated %v", alg.Name(), rep, got, want)
				}
			}
		}
	}
}
