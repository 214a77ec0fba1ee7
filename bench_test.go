// Package repro's repository-level benchmarks. One benchmark per
// registered paper experiment (every Table 1 cell, figure, and
// decision-time theorem — see internal/exp), plus micro-benchmarks for
// the substrate operations the experiments lean on.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/consensus"
	"repro/consensus/distributed"
	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/approx"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/model"
	codec "repro/internal/scenario"
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

// BenchmarkCertify certifies one schedule per iteration: the per-round
// predicates over its horizon and the eventually-rooted window search.
// The eventually-rooted and partition-heal schedules need windows of 51
// and 41 rounds; every churn round is rooted, so its window is 1.
func BenchmarkCertify(b *testing.B) {
	ctx := context.Background()
	for _, spec := range []string{"eventuallyrooted:300,50", "partitionheal:200,4,40", "churn:70,3,5,20,10"} {
		s, err := consensus.Scenarios.New(spec, consensus.ScenarioEnv{Models: consensus.Models, Scenarios: consensus.Scenarios})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Certify(ctx, 0, nil); err != nil {
					b.Fatal(err)
				}
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

// BenchmarkValencyInner measures the engine's standard usage: one
// persistent engine queried repeatedly, so the transposition table is
// warm after the first iteration — exactly the adversaries' cross-round
// access pattern.
func BenchmarkValencyInner(b *testing.B) {
	m := model.TwoAgent()
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	for _, depth := range []int{2, 4, 6, 8} {
		eng := valency.NewEngine(m, valency.DefaultParams(depth, true))
		b.Run("depth-"+strconv.Itoa(depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = eng.Inner(context.Background(), c)
			}
		})
	}
}

// BenchmarkValencyInnerCold measures a full exploration from an empty
// transposition table: every iteration pays the entire tree walk. This is
// the honest single-shot speedup over the naive recursive reference
// (limits inherited down the walk, within-walk memoization, arena
// stepping — but no cross-call reuse).
func BenchmarkValencyInnerCold(b *testing.B) {
	m := model.TwoAgent()
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	for _, depth := range []int{2, 4, 6, 8} {
		b.Run("depth-"+strconv.Itoa(depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := valency.NewEngine(m, valency.DefaultParams(depth, true))
				_, _ = eng.Inner(context.Background(), c)
			}
		})
	}
}

// BenchmarkValencyOuter measures the outer-bound walk, warm-engine usage.
func BenchmarkValencyOuter(b *testing.B) {
	m := model.TwoAgent()
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	for _, depth := range []int{4, 8} {
		eng := valency.NewEngine(m, valency.DefaultParams(depth, true))
		b.Run("depth-"+strconv.Itoa(depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = eng.Outer(context.Background(), c)
			}
		})
	}
}

// genericSettle hides an algorithm's settle kernel: embedding only the
// DenseAlgorithm interface promotes no DenseSettler method, so
// core.Settle runs its generic loop on it.
type genericSettle struct{ core.DenseAlgorithm }

// BenchmarkSettle measures one constant-graph settle (engine defaults:
// Settle 512, Tol 1e-9) of TwoThirds on the two-agent model, with its
// settle kernel and with the generic DenseStep + Hull loop. An op
// settles the next of 64 seeded input vectors under the next model
// graph, so ns/op is ns per settle. The valency engine answers H1 and H2
// in closed form and settles only H0, but the kernel is measured on
// every graph.
func BenchmarkSettle(b *testing.B) {
	m, alg := model.TwoAgent(), algorithms.TwoThirds{}
	p := valency.DefaultParams(0, true)
	rng := rand.New(rand.NewSource(8))
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	for _, side := range []struct {
		name string
		alg  core.DenseAlgorithm
	}{{"kernel", alg}, {"generic", genericSettle{alg}}} {
		b.Run("twoagent/"+side.name, func(b *testing.B) {
			var st core.DenseState
			var sc core.SettleScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.Resize(2, 0)
				copy(st.Y, inputs[i%len(inputs)])
				core.Settle(side.alg, &st, m.Graph(i%m.Size()), p.Settle, p.Tol, &sc)
			}
		})
	}
}

func BenchmarkGreedyAdversaryRound(b *testing.B) {
	m := model.DeafModel(graph.Complete(3))
	eng := valency.NewEngine(m, valency.DefaultParams(3, true))
	adv := &adversary.Greedy{Eng: eng}
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
		eng := valency.NewEngine(m, valency.DefaultParams(3, true))
		adv := &adversary.Greedy{Eng: eng}
		tr := core.Run(algorithms.Midpoint{}, inputs, adv, rounds)
		if tr.Rounds() != rounds {
			b.Fatal("short run")
		}
		stats = eng.Stats()
	}
	b.ReportMetric(stats.HitRate(), "hit-rate")
}

// BenchmarkLowerBoundSessions runs the four executions of the
// ladderbench lower-bound workload (Theorems 1–3: twoagent two-thirds
// greedy at depth 4, deaf:3 and deaf:4 midpoint greedy at depths 4 and
// 3, psi:5 midpoint blockgreedy at depth 3; 12 rounds each) through
// consensus.Session, each from fresh inputs on the pooled engines, and
// reports ns per run-round: the in-process counterpart of the workload's
// run_rounds_per_s. As in the workload, the inputs are a seeded random
// affine image lo + scale·SpreadInputs(n), so every run explores new
// configurations while the engines keep their tables across runs.
func BenchmarkLowerBoundSessions(b *testing.B) {
	const rounds = 12
	specs := []struct {
		model, alg, adv string
		depth, n        int
	}{
		{"twoagent", "twothirds", "greedy", 4, 2},
		{"deaf:3", "midpoint", "greedy", 4, 3},
		{"deaf:4", "midpoint", "greedy", 3, 4},
		{"psi:5", "midpoint", "blockgreedy", 3, 5},
	}
	rng := rand.New(rand.NewSource(1))
	// A cancellable context, as a served request has, so the valency
	// search polls it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			lo, scale := rng.Float64(), 0.5+rng.Float64()
			inputs := consensus.SpreadInputs(sp.n)
			for j := range inputs {
				inputs[j] = lo + scale*inputs[j]
			}
			s, err := consensus.New(consensus.WithModel(sp.model), consensus.WithAlgorithm(sp.alg),
				consensus.WithAdversary(sp.adv), consensus.WithDepth(sp.depth),
				consensus.WithRounds(rounds), consensus.WithInputs(inputs...))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(specs)*rounds), "ns/run-round")
}

// BenchmarkScheduleFingerprint fingerprints one churn:256,S,4,25,64
// schedule, the scenario shape of every grid-wide spec: 25 distinct
// near-full 256-agent graphs over 100 rounds, whose canonical encoding
// is about 253 KB of ten-byte row words. A served sweep pays this once
// per fresh spec, when the coordinator content-addresses it. The codec
// is called directly, because a Schedule memoizes its fingerprint.
func BenchmarkScheduleFingerprint(b *testing.B) {
	s, err := consensus.Scenarios.New("churn:256,7,4,25,64", consensus.ScenarioEnv{Models: consensus.Models, Scenarios: consensus.Scenarios})
	if err != nil {
		b.Fatal(err)
	}
	if !s.Finite() {
		b.Fatal("churn schedule has a loop")
	}
	prefix := s.Graphs(s.PrefixLen())
	b.ReportAllocs()
	b.SetBytes(int64(len(s.Encode())))
	for b.Loop() {
		codec.Fingerprint(s.N(), prefix, nil)
	}
}

// BenchmarkShardHop encodes one 16-spec churn:256 shard response as a
// worker writes it and decodes it as the coordinator reads it: the JSON
// each grid-wide shard pays on the hop. The results are computed once,
// with the grid-wide shape (fresh inputs, 400 rounds, algorithms in
// rotation); the encoder and decoder are the ones the two sides use.
func BenchmarkShardHop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	algs := []string{"midpoint", "amortized", "mean"}
	specs := make([]consensus.RunSpec, distributed.DefaultShardSpecs)
	for i := range specs {
		inputs := make([]float64, 256)
		for j := range inputs {
			inputs[j] = rng.Float64()
		}
		specs[i] = consensus.RunSpec{Scenario: "churn:256," + strconv.Itoa(i) + ",4,25,64",
			Algorithm: algs[i%len(algs)], Inputs: inputs, Rounds: 400}
	}
	results, err := consensus.Sweep(context.Background(), specs, consensus.WithSweepCache(consensus.NewSweepCache()))
	if err != nil {
		b.Fatal(err)
	}
	resp := distributed.ShardResponse{Shard: "bench", Results: make([]distributed.ShardResult, len(results))}
	for i, r := range results {
		if r.Err != "" {
			b.Fatal(r.Err)
		}
		resp.Results[i] = distributed.ShardResult{Fingerprint: r.Fingerprint, Cached: r.Cached, Summary: r.Summary, Err: r.Err}
	}
	encode := func(buf *bytes.Buffer) {
		if err := json.NewEncoder(buf).Encode(resp); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	encode(&buf)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		encode(&buf)
		var got distributed.ShardResponse
		if err := json.NewDecoder(&buf).Decode(&got); err != nil {
			b.Fatal(err)
		}
	}
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
