package valency_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// bg is the context of the tests' valency queries, which are never
// cancelled.
var bg = context.Background()

// must returns v, panicking on err: a query under bg cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// engineCase is one (model, algorithm, inputs) instance the differential
// tests sweep over: the seed models of the paper experiments, and one
// model with no self-rooted graph, whose Midpoint limits are all settled.
type engineCase struct {
	name   string
	m      *model.Model
	alg    core.Algorithm
	inputs []float64
}

func engineCases() []engineCase {
	cases := []engineCase{
		{"twoagent/two-thirds", model.TwoAgent(), algorithms.TwoThirds{}, []float64{0, 1}},
		{"twoagent/midpoint", model.TwoAgent(), algorithms.Midpoint{}, []float64{0, 1}},
	}
	for n := 3; n <= 5; n++ {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64(i) / float64(n-1)
		}
		m := model.DeafModel(graph.Complete(n))
		cases = append(cases,
			engineCase{fmt.Sprintf("deafK%d/midpoint", n), m, algorithms.Midpoint{}, inputs},
			engineCase{fmt.Sprintf("deafK%d/amortized", n), m, algorithms.AmortizedMidpoint{}, inputs},
		)
	}
	return append(cases, engineCase{"noSelfRoot3/midpoint", noSelfRootModel(), algorithms.Midpoint{}, []float64{0, 1, 0.25}})
}

// TestEngineMatchesReferenceInner asserts bit-identical Inner intervals
// between the memoized engine and the naive recursive reference walk on
// every seed model.
func TestEngineMatchesReferenceInner(t *testing.T) {
	for _, tc := range engineCases() {
		for depth := 0; depth <= 3; depth++ {
			t.Run(fmt.Sprintf("%s/depth-%d", tc.name, depth), func(t *testing.T) {
				p := valency.DefaultParams(depth, true)
				eng := valency.NewEngine(tc.m, p)
				c := core.NewConfig(tc.alg, tc.inputs)
				want := valency.ReferenceInner(tc.m, p, c)
				got := must(eng.Inner(bg, c))
				if got != want {
					t.Fatalf("engine Inner = %v, reference = %v", got, want)
				}
				// A second call must serve the root from cache and still
				// agree exactly.
				if again := must(eng.Inner(bg, c)); again != want {
					t.Fatalf("cached Inner = %v, reference = %v", again, want)
				}
			})
		}
	}
}

// TestEngineMatchesReferenceOuter asserts bit-identical Outer intervals
// between engine and reference.
func TestEngineMatchesReferenceOuter(t *testing.T) {
	for _, tc := range engineCases() {
		for depth := 0; depth <= 3; depth++ {
			t.Run(fmt.Sprintf("%s/depth-%d", tc.name, depth), func(t *testing.T) {
				p := valency.DefaultParams(depth, true)
				c := core.NewConfig(tc.alg, tc.inputs)
				want := valency.ReferenceOuter(tc.m, p, c)
				got := must(valency.NewEngine(tc.m, p).Outer(bg, c))
				if got != want {
					t.Fatalf("engine Outer = %v, reference = %v", got, want)
				}
			})
		}
	}
}

// TestEngineLimitOfConstantMatchesReference checks the engine's
// constant-graph limits against the pre-engine settle loop on every model
// graph and several tree prefixes: bit for bit where the engine settles.
// Where it answers in closed form, the answer is y_r and the settle loop
// is its oracle: it converges within Tol/2 of y_r.
func TestEngineLimitOfConstantMatchesReference(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := valency.DefaultParams(2, true)
			eng := valency.NewEngine(tc.m, p)
			var walk func(c *core.Config, depth int)
			walk = func(c *core.Config, depth int) {
				for k := 0; k < tc.m.Size(); k++ {
					wantL, wantOK := referenceLimit(tc.m, p, c, k)
					if y, ok := closedForm(c, tc.m.Graph(k)); ok {
						if !wantOK || math.Abs(y-wantL) > p.Tol/2 {
							t.Fatalf("limit(depth=%d, k=%d): closed form %v, settle (%v, %v)", depth, k, y, wantL, wantOK)
						}
						wantL = y
					}
					gotL, gotOK := eng.LimitOfConstant(c, k)
					if math.Float64bits(gotL) != math.Float64bits(wantL) || gotOK != wantOK {
						t.Fatalf("limit(depth=%d, k=%d) = (%v, %v), reference (%v, %v)",
							depth, k, gotL, gotOK, wantL, wantOK)
					}
					if depth > 0 {
						walk(c.Step(tc.m.Graph(k)), depth-1)
					}
				}
			}
			walk(core.NewConfig(tc.alg, tc.inputs), 2)
		})
	}
}

// TestSettledLimitNearMaxFloat pins settles that converge above
// MaxFloat64/2, where the sum of the hull's ends overflows: TwoThirds on
// twoagent and Mean and Midpoint on deaf:3 (whose closed form refuses
// such a y_r), each from inputs all 1.7e308. Every limit from the root,
// settled at round 0 or in closed form, must be 1.7e308, not +Inf;
// every successor overflows to +Inf where an agent hears another, and
// contributes only closed-form limits. So Inner is [1.7e308, 1.7e308],
// from the engine and from the reference walk alike.
func TestSettledLimitNearMaxFloat(t *testing.T) {
	const big = 1.7e308
	deaf3 := model.DeafModel(graph.Complete(3))
	for _, tc := range []engineCase{
		{"twoagent/two-thirds", model.TwoAgent(), algorithms.TwoThirds{}, []float64{big, big}},
		{"deafK3/mean", deaf3, algorithms.Mean{}, []float64{big, big, big}},
		{"deafK3/midpoint", deaf3, algorithms.Midpoint{}, []float64{big, big, big}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := valency.DefaultParams(2, true)
			c := core.NewConfig(tc.alg, tc.inputs)
			eng := valency.NewEngine(tc.m, p)
			for k := 0; k < tc.m.Size(); k++ {
				if got, ok := eng.LimitOfConstant(c, k); !ok || got != big {
					t.Fatalf("limit under graph %d = (%v, %v), want (%v, true)", k, got, ok, big)
				}
			}
			want := valency.Interval{Lo: big, Hi: big}
			if got := must(eng.Inner(bg, c)); got != want {
				t.Fatalf("engine Inner = %v, want %v", got, want)
			}
			if got := valency.ReferenceInner(tc.m, p, c); got != want {
				t.Fatalf("reference Inner = %v, want %v", got, want)
			}
		})
	}
}

// referenceLimit mirrors the pre-engine LimitOfConstant implementation:
// the midpoint of settleHull.
func referenceLimit(m *model.Model, p valency.Params, c *core.Config, k int) (float64, bool) {
	lo, hi, ok := settleHull(m, p, c, k)
	return valency.HullMidpoint(lo, hi), ok
}

// settleHull is the pre-engine settle loop: it repeats graph k from c
// until the outputs span at most Tol, for at most Settle rounds, and
// returns that output hull (0, 0 when it did not converge).
func settleHull(m *model.Model, p valency.Params, c *core.Config, k int) (lo, hi float64, ok bool) {
	g := m.Graph(k)
	cur := c
	for r := 0; r < p.Settle; r++ {
		if cur.Diameter() <= p.Tol {
			lo, hi := core.Hull(cur.Outputs())
			return lo, hi, true
		}
		cur = cur.Step(g)
	}
	if cur.Diameter() <= p.Tol {
		lo, hi := core.Hull(cur.Outputs())
		return lo, hi, true
	}
	return 0, 0, false
}

// closedForm is the test's own statement of the closed-form rule: when g
// is rooted at an agent r that hears only itself and c's algorithm
// declares core.SelfRootKeeper, the limit of repeating g is y_r whenever
// the algorithm keeps it.
func closedForm(c *core.Config, g graph.Graph) (float64, bool) {
	keeper, ok := c.Algorithm().(core.SelfRootKeeper)
	if !ok || !g.IsRooted() {
		return 0, false
	}
	for r := 0; r < g.N(); r++ {
		if g.IsDeaf(r) {
			y := c.Output(r)
			return y, keeper.SelfRootKeeps(y)
		}
	}
	return 0, false
}

// TestEngineConcurrentCallers shares one engine among four goroutines,
// on every engine case, both a default engine and a tiny one whose
// tables evict while the others probe: each goroutine calls Inner,
// Outer and SuccessorInners on the case's root and its successors,
// starting at its own offset, and every answer must equal, bit for bit,
// what a fresh engine with a single caller returns. With the walk
// sequential per query, this is the test of the engine's mutex and
// walker free list; run it under -race.
func TestEngineConcurrentCallers(t *testing.T) {
	const callers = 4
	type answer struct {
		inner, outer valency.Interval
		succ         []valency.Interval
	}
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := valency.DefaultParams(2, true)
			root := core.NewConfig(tc.alg, tc.inputs)
			configs := []*core.Config{root}
			for k := 0; k < tc.m.Size(); k++ {
				configs = append(configs, root.Step(tc.m.Graph(k)))
			}
			want := make([]answer, len(configs))
			for i, c := range configs {
				want[i] = answer{
					must(valency.NewEngine(tc.m, p).Inner(bg, c)),
					must(valency.NewEngine(tc.m, p).Outer(bg, c)),
					must(valency.NewEngine(tc.m, p).SuccessorInners(bg, c)),
				}
			}
			for _, shared := range []*valency.Engine{valency.NewEngine(tc.m, p), valency.NewTinyEngine(tc.m, p)} {
				var wg sync.WaitGroup
				wg.Add(callers)
				for g := 0; g < callers; g++ {
					go func(g int) {
						defer wg.Done()
						for j := range configs {
							i := (g + j) % len(configs)
							c := configs[i]
							got := answer{must(shared.Inner(bg, c)), must(shared.Outer(bg, c)), must(shared.SuccessorInners(bg, c))}
							if got.inner != want[i].inner || got.outer != want[i].outer || !reflect.DeepEqual(got.succ, want[i].succ) {
								t.Errorf("caller %d, config %d: got %+v, single caller %+v", g, i, got, want[i])
							}
						}
					}(g)
				}
				wg.Wait()
			}
		})
	}
}

// TestEngineSuccessorInnersMatchReference pins the adversary-facing
// branching data to the reference walk.
func TestEngineSuccessorInnersMatchReference(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := valency.DefaultParams(2, true)
			c := core.NewConfig(tc.alg, tc.inputs)
			got := must(valency.NewEngine(tc.m, p).SuccessorInners(bg, c))
			for k := 0; k < tc.m.Size(); k++ {
				want := valency.ReferenceInner(tc.m, p, c.Step(tc.m.Graph(k)))
				if got[k] != want {
					t.Fatalf("successor %d: engine %v, reference %v", k, got[k], want)
				}
			}
		})
	}
}

// TestEngineCacheEffectiveness asserts the limit inheritance and the
// transposition tables actually fire: a cold walk answers
// limits its nodes inherit (counted as limit hits) and stores one limit
// entry per settle, and a repeated Inner call must be answered from the
// root entry.
func TestEngineCacheEffectiveness(t *testing.T) {
	m := model.TwoAgent()
	p := valency.DefaultParams(4, true)
	eng := valency.NewEngine(m, p)
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	first := must(eng.Inner(bg, c))
	s1 := eng.Stats()
	if s1.LimitHits == 0 {
		t.Fatalf("no limit hits during first walk; stats %+v", s1)
	}
	if s1.LimitEntries == 0 || s1.InnerEntries == 0 {
		t.Fatalf("empty transposition tables after walk; stats %+v", s1)
	}
	if uint64(s1.LimitEntries) != s1.LimitMisses {
		t.Fatalf("cold walk stored %d limit entries for %d settles", s1.LimitEntries, s1.LimitMisses)
	}
	second := must(eng.Inner(bg, c))
	s2 := eng.Stats()
	if second != first {
		t.Fatalf("cached result %v differs from first %v", second, first)
	}
	if s2.InnerHits != s1.InnerHits+1 || s2.InnerMisses != s1.InnerMisses {
		t.Fatalf("second call was not a pure root hit: before %+v, after %+v", s1, s2)
	}
}

// TestEngineLeafEntries pins which Inner leaves are memoized. Where the
// algorithm declares core.SelfRootKeeper and at most one model graph
// has no self root, a leaf's limits cost at most one limit-table probe,
// so no leaf is stored: a depth-1 Inner on deaf:3 under midpoint stores
// one inner entry, the root's. Leaves are stored where the algorithm
// does not declare the capability (mean on deaf:3) or where several
// graphs settle (midpoint on noSelfRoot3): there the root and its three
// distinct children. A query's root is walked like any node, so at
// depth 0 it is a leaf: not stored on deaf:3 under midpoint, stored on
// noSelfRoot3; and a depth-0 Outer stores no outer entry.
func TestEngineLeafEntries(t *testing.T) {
	deaf3 := model.DeafModel(graph.Complete(3))
	for _, tc := range []struct {
		engineCase
		depth, entries int
	}{
		{engineCase{"deafK3/midpoint", deaf3, algorithms.Midpoint{}, []float64{0, 1, 0.5}}, 1, 1},
		{engineCase{"deafK3/mean", deaf3, algorithms.Mean{}, []float64{0, 1, 0.5}}, 1, 4},
		{engineCase{"noSelfRoot3/midpoint", noSelfRootModel(), algorithms.Midpoint{}, []float64{0, 1, 0.25}}, 1, 4},
		{engineCase{"depth-0/deafK3/midpoint", deaf3, algorithms.Midpoint{}, []float64{0, 1, 0.5}}, 0, 0},
		{engineCase{"depth-0/noSelfRoot3/midpoint", noSelfRootModel(), algorithms.Midpoint{}, []float64{0, 1, 0.25}}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := valency.DefaultParams(tc.depth, true)
			c := core.NewConfig(tc.alg, tc.inputs)
			eng := valency.NewEngine(tc.m, p)
			if got, want := must(eng.Inner(bg, c)), valency.ReferenceInner(tc.m, p, c); got != want {
				t.Fatalf("engine Inner = %v, reference = %v", got, want)
			}
			if s := eng.Stats(); s.InnerEntries != tc.entries {
				t.Fatalf("depth-%d Inner stored %d inner entries, want %d; stats %+v", tc.depth, s.InnerEntries, tc.entries, s)
			}
			if tc.depth > 0 {
				return
			}
			if got, want := must(eng.Outer(bg, c)), valency.ReferenceOuter(tc.m, p, c); got != want {
				t.Fatalf("engine Outer = %v, reference = %v", got, want)
			}
			if s := eng.Stats(); s.OuterEntries != 0 || s.OuterHits+s.OuterMisses != 0 {
				t.Fatalf("depth-0 Outer probed or stored the outer table; stats %+v", s)
			}
		})
	}
}

// TestEngineInheritanceBoundary pins the two settle outcomes a node must
// not pass down to its child, on cold engines against the reference walk
// (Inner, and every SuccessorInners entry against the reference Inner of
// that successor): a convergence at round 0 (inputs within Tol, so every
// settle from the root converges at once, while the children's hull
// midpoints differ), and a failed settle (with Settle 3 the root's H0
// settle fails, while its H0 successor's converges at round 3; H1 and H2
// limits come in closed form).
func TestEngineInheritanceBoundary(t *testing.T) {
	m := model.TwoAgent()
	cases := []struct {
		name   string
		inputs []float64
		settle int
	}{
		{"round-0", []float64{0, 0.9e-9}, 512},
		{"not-converged", []float64{0, 50e-9}, 3},
	}
	for _, tc := range cases {
		for depth := 1; depth <= 3; depth++ {
			t.Run(fmt.Sprintf("%s/depth-%d", tc.name, depth), func(t *testing.T) {
				p := valency.Params{Depth: depth, Settle: tc.settle, Tol: 1e-9, Convex: true}
				c := core.NewConfig(algorithms.TwoThirds{}, tc.inputs)
				if got, want := must(valency.NewEngine(m, p).Inner(bg, c)), valency.ReferenceInner(m, p, c); got != want {
					t.Fatalf("engine Inner = %v, reference = %v", got, want)
				}
				got := must(valency.NewEngine(m, p).SuccessorInners(bg, c))
				for k := range got {
					if want := valency.ReferenceInner(m, p, c.Step(m.Graph(k))); got[k] != want {
						t.Fatalf("successor %d: engine %v, reference %v", k, got[k], want)
					}
				}
			})
		}
	}
}

// TestEngineUnfingerprintableFallback checks that an algorithm without
// fingerprint support is still explored correctly, just without caching.
func TestEngineUnfingerprintableFallback(t *testing.T) {
	m := model.TwoAgent()
	alg := opaqueAlg{algorithms.Midpoint{}}
	p := valency.DefaultParams(3, true)
	c := core.NewConfig(alg, []float64{0, 1})
	want := valency.ReferenceInner(m, p, c)
	eng := valency.NewEngine(m, p)
	if got := must(eng.Inner(bg, c)); got != want {
		t.Fatalf("engine Inner = %v, reference = %v", got, want)
	}
	if s := eng.Stats(); s.InnerEntries != 0 || s.LimitEntries != 0 {
		t.Fatalf("opaque agents must not be memoized; stats %+v", s)
	}
}

// opaqueAlg wraps an algorithm so its agents hide every optional
// capability (no Fingerprinter, no StateCopier).
type opaqueAlg struct{ inner core.Algorithm }

func (o opaqueAlg) Name() string { return "opaque(" + o.inner.Name() + ")" }
func (o opaqueAlg) Convex() bool { return o.inner.Convex() }
func (o opaqueAlg) NewAgent(id, n int, initial float64) core.Agent {
	return &opaqueAgent{inner: o.inner.NewAgent(id, n, initial)}
}

type opaqueAgent struct{ inner core.Agent }

func (a *opaqueAgent) Broadcast(round int) core.Message       { return a.inner.Broadcast(round) }
func (a *opaqueAgent) Deliver(round int, msgs []core.Message) { a.inner.Deliver(round, msgs) }
func (a *opaqueAgent) Output() float64                        { return a.inner.Output() }
func (a *opaqueAgent) Clone() core.Agent                      { return &opaqueAgent{inner: a.inner.Clone()} }
