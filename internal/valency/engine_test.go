package valency_test

import (
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// engineCase is one (model, algorithm, inputs) instance the differential
// tests sweep over: the seed models of the paper experiments.
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
	return cases
}

// TestEngineMatchesReferenceInner asserts bit-identical Inner intervals
// between the memoized engine and the naive recursive reference walk on
// every seed model.
func TestEngineMatchesReferenceInner(t *testing.T) {
	for _, tc := range engineCases() {
		for depth := 0; depth <= 3; depth++ {
			t.Run(fmt.Sprintf("%s/depth-%d", tc.name, depth), func(t *testing.T) {
				est := valency.NewEstimator(tc.m, depth, true)
				c := core.NewConfig(tc.alg, tc.inputs)
				want := est.ReferenceInner(c)
				got := est.Inner(c)
				if got != want {
					t.Fatalf("engine Inner = %v, reference = %v", got, want)
				}
				// A second call must serve the root from cache and still
				// agree exactly.
				if again := est.Inner(c); again != want {
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
				est := valency.NewEstimator(tc.m, depth, true)
				c := core.NewConfig(tc.alg, tc.inputs)
				want := est.ReferenceOuter(c)
				got := est.Outer(c)
				if got != want {
					t.Fatalf("engine Outer = %v, reference = %v", got, want)
				}
			})
		}
	}
}

// TestEngineLimitOfConstantMatchesReference checks the memoized settle
// loop, including chain pre-filling, against the reference on every model
// graph and several tree prefixes.
func TestEngineLimitOfConstantMatchesReference(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			est := valency.NewEstimator(tc.m, 2, true)
			eng := est.Engine()
			var walk func(c *core.Config, depth int)
			walk = func(c *core.Config, depth int) {
				for k := 0; k < tc.m.Size(); k++ {
					wantL, wantOK := referenceLimit(est, c, k)
					gotL, gotOK := eng.LimitOfConstant(c, k)
					if gotL != wantL || gotOK != wantOK {
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

// referenceLimit mirrors the pre-engine LimitOfConstant implementation.
func referenceLimit(est valency.Estimator, c *core.Config, k int) (float64, bool) {
	g := est.Model.Graph(k)
	cur := c
	for r := 0; r < est.Settle; r++ {
		if cur.Diameter() <= est.Tol {
			lo, hi := core.Hull(cur.Outputs())
			return (lo + hi) / 2, true
		}
		cur = cur.Step(g)
	}
	if cur.Diameter() <= est.Tol {
		lo, hi := core.Hull(cur.Outputs())
		return (lo + hi) / 2, true
	}
	return 0, false
}

// TestEngineParallelDeterminism runs the parallel walk repeatedly with
// varying worker counts and demands bit-identical intervals every time.
func TestEngineParallelDeterminism(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := core.NewConfig(tc.alg, tc.inputs)
			p := valency.DefaultParams(3, true)
			p.Workers = 1
			want := valency.NewEngine(tc.m, p).Inner(c)
			wantOut := valency.NewEngine(tc.m, p).Outer(c)
			for _, workers := range []int{0, 2, 3, 4, 8} {
				for rep := 0; rep < 3; rep++ {
					pp := p
					pp.Workers = workers
					eng := valency.NewEngine(tc.m, pp)
					if got := eng.Inner(c); got != want {
						t.Fatalf("workers=%d rep=%d: Inner = %v, sequential = %v", workers, rep, got, want)
					}
					if got := eng.Outer(c); got != wantOut {
						t.Fatalf("workers=%d rep=%d: Outer = %v, sequential = %v", workers, rep, got, wantOut)
					}
				}
			}
		})
	}
}

// TestEngineSuccessorInnersMatchReference pins the adversary-facing
// branching data to the reference walk.
func TestEngineSuccessorInnersMatchReference(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			est := valency.NewEstimator(tc.m, 2, true)
			c := core.NewConfig(tc.alg, tc.inputs)
			got := est.SuccessorInners(c)
			for k := 0; k < tc.m.Size(); k++ {
				want := est.ReferenceInner(c.Step(tc.m.Graph(k)))
				if got[k] != want {
					t.Fatalf("successor %d: engine %v, reference %v", k, got[k], want)
				}
			}
		})
	}
}

// TestEngineCacheEffectiveness asserts the transposition table actually
// fires: a repeated Inner call must be answered from the root entry, and
// the settle-chain pre-fill must produce limit hits within the first walk.
func TestEngineCacheEffectiveness(t *testing.T) {
	m := model.TwoAgent()
	eng := valency.NewEngine(m, valency.DefaultParams(4, true))
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	first := eng.Inner(c)
	s1 := eng.Stats()
	if s1.LimitHits == 0 {
		t.Fatalf("no limit-cache hits during first walk; stats %+v", s1)
	}
	if s1.LimitEntries == 0 || s1.InnerEntries == 0 {
		t.Fatalf("empty transposition tables after walk; stats %+v", s1)
	}
	second := eng.Inner(c)
	s2 := eng.Stats()
	if second != first {
		t.Fatalf("cached result %v differs from first %v", second, first)
	}
	if s2.InnerHits != s1.InnerHits+1 || s2.InnerMisses != s1.InnerMisses {
		t.Fatalf("second call was not a pure root hit: before %+v, after %+v", s1, s2)
	}
}

// TestEstimatorFromEngineReusesWorkersEngine checks that an estimator
// bound to a pooled engine with an explicit worker count keeps using that
// engine, so its transposition tables carry over between calls.
func TestEstimatorFromEngineReusesWorkersEngine(t *testing.T) {
	p := valency.DefaultParams(3, true)
	p.Workers = 2
	eng := valency.NewEngine(model.TwoAgent(), p)
	est := valency.EstimatorFromEngine(eng)
	if est.Engine() != eng {
		t.Fatal("EstimatorFromEngine(eng).Engine() built a fresh engine for Workers = 2")
	}
	est.Depth++
	if est.Engine() == eng {
		t.Fatal("an estimator with a changed depth must not reuse the bound engine")
	}
}

// TestEngineUnfingerprintableFallback checks that an algorithm without
// fingerprint support is still explored correctly, just without caching.
func TestEngineUnfingerprintableFallback(t *testing.T) {
	m := model.TwoAgent()
	alg := opaqueAlg{algorithms.Midpoint{}}
	est := valency.NewEstimator(m, 3, true)
	c := core.NewConfig(alg, []float64{0, 1})
	want := est.ReferenceInner(c)
	eng := est.Engine()
	if got := eng.Inner(c); got != want {
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
