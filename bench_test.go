// Package repro's repository-level benchmarks. One benchmark per
// registered paper experiment (every Table 1 cell, figure, and
// decision-time theorem — see internal/exp), plus micro-benchmarks for
// the substrate operations the experiments lean on.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/approx"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
	"repro/internal/vector"
)

// BenchmarkExperiment regenerates every paper table and figure; the
// sub-benchmark names are the experiment IDs from internal/exp.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range exp.All() {
		e := e
		b.Run(strings.ReplaceAll(e.ID, "/", "_"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl := e.Run()
				if len(tbl.Rows) == 0 {
					b.Fatal("experiment produced no rows")
				}
			}
		})
	}
}

func BenchmarkGraphProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 8, 32, 64, 256} {
		g := graph.Random(rng, n, 0.3)
		h := graph.Random(rng, n, 0.3)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = graph.Product(g, h)
			}
		})
	}
}

// rootsBenchGraph is one input of the root-set benchmarks.
type rootsBenchGraph struct {
	name string
	g    graph.Graph
}

// rootsBenchGraphs returns, per size, a sparse random graph and the path
// 0 -> ... -> n-1, whose DFS on the transpose runs n frames deep.
func rootsBenchGraphs() []rootsBenchGraph {
	rng := rand.New(rand.NewSource(2))
	var gs []rootsBenchGraph
	for _, n := range []int{2, 8, 32, 64, 256, 1024} {
		gs = append(gs,
			rootsBenchGraph{"random/" + sizeName(n), graph.Random(rng, n, 0.1)},
			rootsBenchGraph{"path/" + sizeName(n), graph.PathGraph(n)})
	}
	return gs
}

func BenchmarkGraphRoots(b *testing.B) {
	for _, c := range rootsBenchGraphs() {
		g := c.g
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.RootsSet()
			}
		})
	}
}

func BenchmarkGraphIsRooted(b *testing.B) {
	for _, c := range rootsBenchGraphs() {
		g := c.g
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.IsRooted()
			}
		})
	}
}

func BenchmarkGraphNonSplit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 8, 32, 64, 256} {
		g := graph.RandomNonSplit(rng, n, 0.3)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.IsNonSplit()
			}
		})
	}
}

func BenchmarkConfigStep(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 16, 64} {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64()
		}
		g := graph.RandomNonSplit(rng, n, 0.3)
		for _, alg := range []core.Algorithm{algorithms.Midpoint{}, algorithms.AmortizedMidpoint{}} {
			c := core.NewConfig(alg, inputs)
			b.Run(alg.Name()+"/"+sizeName(n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = c.Step(g)
				}
			})
		}
	}
}

// BenchmarkConfigStepInPlace measures the zero-clone fast path used by
// Run; compare with BenchmarkConfigStep to see the cloning cost.
func BenchmarkConfigStepInPlace(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 16, 64} {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64()
		}
		g := graph.RandomNonSplit(rng, n, 0.3)
		c := core.NewConfig(algorithms.Midpoint{}, inputs)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.StepInPlace(g)
			}
		})
	}
}

// BenchmarkDenseStep measures one round of the dense struct-of-arrays
// kernel; compare with BenchmarkConfigStep (forking Agent path) and
// BenchmarkConfigStepInPlace (in-place Agent path) for the same sizes.
func BenchmarkDenseStep(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 16, 64} {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64()
		}
		g := graph.RandomNonSplit(rng, n, 0.3)
		for _, alg := range []core.Algorithm{algorithms.Midpoint{}, algorithms.AmortizedMidpoint{}} {
			d, ok := core.AsDense(alg)
			if !ok {
				b.Fatalf("%s lacks dense support", alg.Name())
			}
			r := core.NewDenseRunner(d, inputs)
			b.Run(alg.Name()+"/"+sizeName(n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r.Step(g)
				}
			})
		}
	}
}

// BenchmarkBatchStep measures the batched execution plane against B
// independent dense runners on one shared deaf(K16) graph: the batch
// steps every run per call, so ns/op divided by B is the per-run round
// cost — the receiver segmentation and mask scan are paid once per
// batch instead of once per run.
func BenchmarkBatchStep(b *testing.B) {
	const n = 16
	rng := rand.New(rand.NewSource(11))
	g := graph.Deaf(graph.Complete(n), 3)
	d, _ := core.AsDense(algorithms.Midpoint{})
	for _, B := range []int{8, 64} {
		inputs := make([][]float64, B)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.Float64()
			}
		}
		b.Run("singles/B"+strconv.Itoa(B), func(b *testing.B) {
			runners := make([]*core.DenseRunner, B)
			for r := range runners {
				runners[r] = core.NewDenseRunner(d, inputs[r])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range runners {
					r.Step(g)
				}
			}
		})
		b.Run("batch/B"+strconv.Itoa(B), func(b *testing.B) {
			br := core.NewBatchRunner(d, inputs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.Step(g)
			}
		})
	}
}

// BenchmarkVectorLift measures the d-dimensional lift: the PR 2 path
// (one DenseRunner per coordinate) against the batch plane the vector
// runner now rides (all coordinates as one batch).
func BenchmarkVectorLift(b *testing.B) {
	const n, dim, rounds = 16, 8, 1000
	rng := rand.New(rand.NewSource(21))
	points := make([]vector.Point, n)
	for i := range points {
		points[i] = make(vector.Point, dim)
		for c := range points[i] {
			points[i][c] = rng.Float64()
		}
	}
	pool := model.DeafModel(graph.Complete(n)).Graphs()
	d, _ := core.AsDense(algorithms.Midpoint{})
	b.Run("per-coord", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runners := make([]*core.DenseRunner, dim)
			coords := make([]float64, n)
			for c := 0; c < dim; c++ {
				for j, p := range points {
					coords[j] = p[c]
				}
				runners[c] = core.NewDenseRunner(d, coords)
			}
			for t := 0; t < rounds; t++ {
				g := pool[t%len(pool)]
				for _, r := range runners {
					r.Step(g)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runner, err := vector.NewRunner(algorithms.Midpoint{}, points)
			if err != nil {
				b.Fatal(err)
			}
			src := core.Cycle{Graphs: pool}
			runner.Run(src, rounds)
			if runner.Round() != rounds {
				b.Fatal("short lift")
			}
		}
	})
}

// BenchmarkContractionDense is the acceptance race of the dense kernel:
// an n=16, 1000-round contraction race (the cmd/contraction measurement
// loop) under the forking Agent path versus the dense kernel. The graphs
// cycle through the deaf(K_16) model, the Table 1 non-split worst case.
func BenchmarkContractionDense(b *testing.B) {
	const n, rounds = 16, 1000
	rng := rand.New(rand.NewSource(8))
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = rng.Float64()
	}
	pool := model.DeafModel(graph.Complete(n)).Graphs()
	for _, alg := range []core.Algorithm{algorithms.Midpoint{}, algorithms.AmortizedMidpoint{}} {
		b.Run(alg.Name()+"/agents", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := core.NewConfig(alg, inputs)
				for round := 1; round <= rounds; round++ {
					c = c.Step(pool[(round-1)%len(pool)])
				}
				if c.Round() != rounds {
					b.Fatal("short race")
				}
			}
		})
		d, ok := core.AsDense(alg)
		if !ok {
			b.Fatalf("%s lacks dense support", alg.Name())
		}
		b.Run(alg.Name()+"/dense", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := core.NewDenseRunner(d, inputs)
				for round := 1; round <= rounds; round++ {
					r.Step(pool[(round-1)%len(pool)])
				}
				if r.Round() != rounds {
					b.Fatal("short race")
				}
			}
		})
	}
}

// BenchmarkValencyInner measures the estimator's standard usage: one
// persistent engine (as built by NewEstimator) queried repeatedly, so the
// transposition table is warm after the first iteration — exactly the
// adversaries' cross-round access pattern.
func BenchmarkValencyInner(b *testing.B) {
	m := model.TwoAgent()
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	for _, depth := range []int{2, 4, 6, 8} {
		est := valency.NewEstimator(m, depth, true)
		b.Run("depth-"+strconv.Itoa(depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = est.Inner(c)
			}
		})
	}
}

// BenchmarkValencyInnerCold measures a full exploration from an empty
// transposition table: every iteration pays the entire tree walk. This is
// the honest single-shot speedup over the naive recursive reference
// (limits inherited down the walk, within-walk memoization, arena
// stepping, parallel fan-out — but no cross-call reuse).
func BenchmarkValencyInnerCold(b *testing.B) {
	m := model.TwoAgent()
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	for _, depth := range []int{2, 4, 6, 8} {
		b.Run("depth-"+strconv.Itoa(depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := valency.NewEngine(m, valency.DefaultParams(depth, true))
				_ = eng.Inner(c)
			}
		})
	}
}

// BenchmarkValencyOuter measures the outer-bound walk, warm-engine usage.
func BenchmarkValencyOuter(b *testing.B) {
	m := model.TwoAgent()
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	for _, depth := range []int{4, 8} {
		est := valency.NewEstimator(m, depth, true)
		b.Run("depth-"+strconv.Itoa(depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = est.Outer(c)
			}
		})
	}
}

// genericSettle hides an algorithm's settle kernel: embedding only the
// DenseAlgorithm interface promotes no DenseSettler method, so
// core.Settle runs its generic loop on it.
type genericSettle struct{ core.DenseAlgorithm }

// BenchmarkSettle measures one constant-graph settle (engine defaults:
// Settle 512, Tol 1e-9) on the four lower-bound models, each with its
// algorithm's settle kernel and with the generic DenseStep + Hull loop.
// An op settles the next of 64 seeded input vectors under the next model
// graph, so ns/op is ns per settle.
func BenchmarkSettle(b *testing.B) {
	cases := []struct {
		name string
		m    *model.Model
		alg  core.DenseAlgorithm
	}{
		{"twoagent", model.TwoAgent(), algorithms.TwoThirds{}},
		{"deaf3", model.DeafModel(graph.Complete(3)), algorithms.Midpoint{}},
		{"deaf4", model.DeafModel(graph.Complete(4)), algorithms.Midpoint{}},
		{"psi5", model.PsiModel(5), algorithms.Midpoint{}},
	}
	p := valency.DefaultParams(0, true)
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(8))
		n := tc.m.N()
		inputs := make([][]float64, 64)
		for i := range inputs {
			inputs[i] = make([]float64, n)
			for j := range inputs[i] {
				inputs[i][j] = rng.Float64()
			}
		}
		for _, side := range []struct {
			name string
			alg  core.DenseAlgorithm
		}{{"kernel", tc.alg}, {"generic", genericSettle{tc.alg}}} {
			b.Run(tc.name+"/"+side.name, func(b *testing.B) {
				var st core.DenseState
				var sc core.SettleScratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.Resize(n, 0)
					copy(st.Y, inputs[i%len(inputs)])
					g := tc.m.Graph(i % tc.m.Size())
					core.Settle(side.alg, &st, g, p.Settle, p.Tol, &sc)
				}
			})
		}
	}
}

func BenchmarkGreedyAdversaryRound(b *testing.B) {
	m := model.DeafModel(graph.Complete(3))
	est := valency.NewEstimator(m, 3, true)
	adv := &adversary.Greedy{Est: est}
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = adv.Next(1, c)
	}
}

// BenchmarkGreedyAdversaryRun plays a whole adversarial execution per
// iteration on a cold engine and reports the transposition-table hit rate
// of the cross-round reuse: the next round's successors are this round's
// level-2 nodes, so the settle loops that ranking the candidates ran in
// the chosen successor's subtree hit the depth-independent limit table in
// the following round. Limits inherited down the walk count as hits.
func BenchmarkGreedyAdversaryRun(b *testing.B) {
	m := model.DeafModel(graph.Complete(3))
	inputs := []float64{0, 1, 0.5}
	const rounds = 8
	b.ReportAllocs()
	var stats valency.CacheStats
	for i := 0; i < b.N; i++ {
		est := valency.NewEstimator(m, 3, true)
		adv := &adversary.Greedy{Est: est}
		tr := core.Run(algorithms.Midpoint{}, inputs, adv, rounds)
		if tr.Rounds() != rounds {
			b.Fatal("short run")
		}
		stats = est.Engine().Stats()
	}
	b.ReportMetric(stats.HitRate(), "hit-rate")
}

func BenchmarkAlphaDiameter(b *testing.B) {
	na, err := model.FullAsyncRound(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		m    *model.Model
	}{
		{"twoagent-3", model.TwoAgent()},
		{"deafK5-5", model.DeafModel(graph.Complete(5))},
		{"NA41-256", na},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = tc.m.AlphaDiameter()
			}
		})
	}
}

func BenchmarkBetaClasses(b *testing.B) {
	na, err := model.FullAsyncRound(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("NA41-256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = na.BetaClasses()
		}
	})
}

func BenchmarkAsyncRoundBased(b *testing.B) {
	for _, tc := range []struct{ n, f int }{{5, 2}, {9, 3}} {
		b.Run("n"+strconv.Itoa(tc.n)+"f"+strconv.Itoa(tc.f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				procs := make([]async.Process, tc.n)
				for j := 0; j < tc.n; j++ {
					procs[j] = async.NewRoundBased(j, tc.n, tc.f, float64(j), async.MidpointUpdate, 20)
				}
				sim, err := async.NewSimulator(procs, async.UniformDelays(int64(i), 0.1), nil)
				if err != nil {
					b.Fatal(err)
				}
				if !sim.RunToQuiescence(1_000_000) {
					b.Fatal("no quiescence")
				}
			}
		})
	}
}

func BenchmarkAsyncMinRelay(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				procs := make([]async.Process, n)
				for j := 0; j < n; j++ {
					procs[j] = async.NewMinRelay(j, float64(j))
				}
				sim, err := async.NewSimulator(procs, async.UniformDelays(int64(i), 0.1), nil)
				if err != nil {
					b.Fatal(err)
				}
				if !sim.RunToQuiescence(5_000_000) {
					b.Fatal("no quiescence")
				}
			}
		})
	}
}

func BenchmarkDecider(b *testing.B) {
	d := approx.Decider{Alg: algorithms.Midpoint{}, Contraction: 0.5}
	worst := core.Fixed{G: graph.Deaf(graph.Complete(5), 0)}
	inputs := []float64{0, 1, 0.5, 0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := d.Run(inputs, worst, 1, 1e-6)
		if !res.EpsAgreement {
			b.Fatal("decider failed")
		}
	}
}

func sizeName(n int) string { return "n" + strconv.Itoa(n) }
