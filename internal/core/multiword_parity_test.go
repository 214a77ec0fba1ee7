package core_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
)

// Multi-word parity: the n > 64 kernels (word-sliced masks, delta-arena
// folds) must be bit-identical to both the sequential batch path and the
// per-run dense path, at every worker count. These are the wide-graph counterparts of TestParallelStepParity
// and the batch-vs-single differential gates.

// wideChurn is deafVariant for any width: everyone hears everyone except
// agent k, who hears only itself and its successor.
func wideChurn(t *testing.T, n, k int) graph.Graph {
	t.Helper()
	k %= n
	b := graph.NewBuilder(n)
	for j := 0; j < n; j++ {
		if j == k {
			b.Edge((k+1)%n, j)
			continue
		}
		for i := 0; i < n; i++ {
			b.Edge(i, j)
		}
	}
	return b.Graph()
}

// wideShift is shiftGraph for any width: agent j hears itself and j+s.
func wideShift(n, s int) graph.Graph {
	b := graph.NewBuilder(n)
	for j := 0; j < n; j++ {
		b.Edge((j+s)%n, j)
	}
	return b.Graph()
}

// stepBothMixedWide mirrors stepBothMixed with word-safe generators, so
// the same mixed round schedule (shared, hulls, clustered per-run,
// per-run with distinct graphs) exercises the multi-word plan builder
// and the delta arena.
func stepBothMixedWide(t *testing.T, d core.DenseAlgorithm, seq, par *core.BatchRunner, n, rounds int) {
	t.Helper()
	b := seq.B()
	gs := make([]graph.Graph, b)
	loS, hiS := make([]float64, b), make([]float64, b)
	loP, hiP := make([]float64, b), make([]float64, b)
	for round := 0; round < rounds; round++ {
		switch round % 4 {
		case 0:
			g := wideChurn(t, n, round)
			seq.Step(g)
			par.Step(g)
		case 1:
			g := wideShift(n, 1+round%(n-1))
			seq.StepWithHulls(g, loS, hiS)
			par.StepWithHulls(g, loP, hiP)
			for i := 0; i < b; i++ {
				if math.Float64bits(loS[i]) != math.Float64bits(loP[i]) ||
					math.Float64bits(hiS[i]) != math.Float64bits(hiP[i]) {
					t.Fatalf("round %d run %d: hulls diverged: [%v,%v] vs [%v,%v]",
						round, i, loS[i], hiS[i], loP[i], hiP[i])
				}
			}
		case 2:
			for i := range gs {
				gs[i] = wideChurn(t, n, i/3+round)
			}
			seq.StepEach(gs)
			par.StepEach(gs)
		case 3:
			for i := range gs {
				gs[i] = wideShift(n, 1+(i+round)%(n-1))
			}
			seq.StepEach(gs)
			par.StepEach(gs)
		}
		assertRunnersEqual(t, fmt.Sprintf("round %d", round), d, seq, par)
	}
}

// TestMultiWordParallelParity pins worker-count invariance past the word
// boundary: n = 128 at 3 and 8 workers (the issue's differential axis)
// and n = 256 at 4 workers (the acceptance fingerprint axis), each
// against the 1-worker runner, for a min/max single-plane stepper, the
// 3-plane amortized stepper, and an order-sensitive sum stepper. B = 1
// steps sequentially at every worker count, and B = 6 shards into at
// most six whole-run tasks.
func TestMultiWordParallelParity(t *testing.T) {
	cases := []struct {
		n    int
		pars []int
	}{
		{128, []int{3, 8}},
		{256, []int{4}},
	}
	algs := []core.Algorithm{
		algorithms.Midpoint{},
		algorithms.AmortizedMidpoint{},
		algorithms.Mean{},
	}
	for _, tc := range cases {
		for _, alg := range algs {
			d, ok := core.AsDense(alg)
			if !ok {
				t.Fatalf("%s has no dense backend", alg.Name())
			}
			for _, b := range []int{1, 6} {
				for _, par := range tc.pars {
					t.Run(fmt.Sprintf("n%d/%s/b%d/par%d", tc.n, alg.Name(), b, par), func(t *testing.T) {
						seq := core.NewBatchRunner(d, testInputs(tc.n, b))
						seq.SetParallelism(1)
						prl := core.NewBatchRunner(d, testInputs(tc.n, b))
						prl.SetParallelism(par)
						stepBothMixedWide(t, d, seq, prl, tc.n, 8)
					})
				}
			}
		}
	}
}

// TestMultiWordAgentsVsDense checks the two execution backends agree
// past the word boundary: the agent oracle (message inboxes driven by
// InRow popcount iteration) and the dense kernel produce bit-identical
// fingerprints after every round at n = 128 and n = 256 — including the
// deciding wrapper, whose dense view appends a decision plane after the
// inner stepper's and decides mid-run.
func TestMultiWordAgentsVsDense(t *testing.T) {
	algs := []core.Algorithm{
		algorithms.Midpoint{},
		algorithms.AmortizedMidpoint{},
		algorithms.Mean{},
		approx.DecidingAlgorithm{Inner: algorithms.AmortizedMidpoint{}, DecisionRound: 3},
	}
	for _, n := range []int{128, 256} {
		for _, alg := range algs {
			d, ok := core.AsDense(alg)
			if !ok {
				t.Fatalf("%s has no dense backend", alg.Name())
			}
			t.Run(fmt.Sprintf("n%d/%s", n, alg.Name()), func(t *testing.T) {
				inputs := testInputs(n, 1)[0]
				c := core.NewConfig(alg, inputs)
				r := core.NewDenseRunner(d, inputs)
				for round := 1; round <= 6; round++ {
					var g graph.Graph
					if round%2 == 0 {
						g = wideChurn(t, n, round)
					} else {
						g = wideShift(n, 1+round%(n-1))
					}
					c = c.Step(g)
					r.Step(g)
					afp, okA := c.AppendFingerprint(nil)
					dfp, okD := core.AppendDenseFingerprint(d, r.State(), nil)
					if !okA || !okD {
						t.Fatalf("round %d: backends not fingerprintable (agent %v, dense %v)", round, okA, okD)
					}
					if !bytes.Equal(afp, dfp) {
						t.Fatalf("round %d: agent and dense fingerprints diverged", round)
					}
				}
			})
		}
	}
}

// TestMultiWordBatchVsSingleDense runs the third leg of the triangle:
// the batched multi-word kernel (at 1, 3, and 8 workers) against B
// independent per-run DenseRunners, per-run graphs every round, with
// output and fingerprint equality after each of 12 rounds at n = 128.
func TestMultiWordBatchVsSingleDense(t *testing.T) {
	const n, b, rounds = 128, 6, 12
	algs := []core.Algorithm{algorithms.Midpoint{}, algorithms.Mean{}}
	for _, alg := range algs {
		d, ok := core.AsDense(alg)
		if !ok {
			t.Fatalf("%s has no dense backend", alg.Name())
		}
		for _, par := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/par%d", alg.Name(), par), func(t *testing.T) {
				inputs := testInputs(n, b)
				batch := core.NewBatchRunner(d, inputs)
				batch.SetParallelism(par)
				singles := make([]*core.DenseRunner, b)
				for i := range singles {
					singles[i] = core.NewDenseRunner(d, inputs[i])
				}
				gs := make([]graph.Graph, b)
				out := make([]float64, n)
				for round := 0; round < rounds; round++ {
					for i := range gs {
						if (round+i)%3 == 0 {
							gs[i] = wideChurn(t, n, i+round)
						} else {
							gs[i] = wideShift(n, 1+(i*5+round)%(n-1))
						}
					}
					batch.StepEach(gs)
					for i, s := range singles {
						s.Step(gs[i])
					}
					for i, s := range singles {
						batch.Outputs(i, out)
						st := s.State()
						for j := 0; j < n; j++ {
							if math.Float64bits(out[j]) != math.Float64bits(st.Y[j]) {
								t.Fatalf("round %d run %d agent %d: batch %v vs single %v",
									round, i, j, out[j], st.Y[j])
							}
						}
						bfp, okB := runFingerprint(d, batch, i)
						sfp, okS := core.AppendDenseFingerprint(d, st, nil)
						if okB != okS || (okB && !bytes.Equal(bfp, sfp)) {
							t.Fatalf("round %d run %d: batch and single fingerprints diverged", round, i)
						}
					}
				}
			})
		}
	}
}
