package core_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
)

// Multi-word parity: the n > 64 kernels (word-sliced masks, delta-arena
// folds) must be bit-identical to one runner of the whole batch however
// the batch is cut into tiles, and to the per-run dense path. These are
// the wide-graph counterparts of TestParallelStepParity and the
// batch-vs-single differential gates.

// TestMultiWordParallelParity pins the tile axis past the word
// boundary: n = 128 cut into 3 and 8 tiles and n = 256 into 4, each
// against one runner of the whole batch, for a min/max single-plane
// stepper, the 3-plane amortized stepper, and an order-sensitive sum
// stepper. B = 1 is one tile however many are asked for, and B = 6
// makes at most six.
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
						whole := core.NewBatchRunner(d, testInputs(tc.n, b))
						stepBothMixed(t, d, whole, cutTiles(d, testInputs(tc.n, b), par), tc.n, 8)
					})
				}
			}
		}
	}
}

// TestMultiWordAgentsVsDense checks the two execution backends agree
// past the word boundary: the agent oracle (message inboxes driven by
// InRow popcount iteration) and the dense kernel produce bit-identical
// fingerprints after every round at n = 128 and n = 256.
func TestMultiWordAgentsVsDense(t *testing.T) {
	algs := []core.Algorithm{
		algorithms.Midpoint{},
		algorithms.AmortizedMidpoint{},
		algorithms.Mean{},
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
						g = deafVariant(n, round)
					} else {
						g = shiftGraph(n, 1+round%(n-1))
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
// the batched multi-word kernel (the batch cut into 1, 3, and 8 tiles)
// against B independent per-run DenseRunners, per-run graphs every
// round, with output and fingerprint equality after each of 12 rounds
// at n = 128.
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
				cut := cutTiles(d, inputs, par)
				singles := make([]*core.DenseRunner, b)
				for i := range singles {
					singles[i] = core.NewDenseRunner(d, inputs[i])
				}
				gs := make([]graph.Graph, b)
				out := make([]float64, n)
				for round := 0; round < rounds; round++ {
					for i := range gs {
						if (round+i)%3 == 0 {
							gs[i] = deafVariant(n, i+round)
						} else {
							gs[i] = shiftGraph(n, 1+(i*5+round)%(n-1))
						}
					}
					cut.step(func(br *core.BatchRunner, lo, hi int) { br.StepEach(gs[lo:hi]) })
					for i, s := range singles {
						s.Step(gs[i])
					}
					for i, s := range singles {
						batch, bi := cut.run(i)
						batch.Outputs(bi, out)
						st := s.State()
						for j := 0; j < n; j++ {
							if math.Float64bits(out[j]) != math.Float64bits(st.Y[j]) {
								t.Fatalf("round %d run %d agent %d: batch %v vs single %v",
									round, i, j, out[j], st.Y[j])
							}
						}
						bfp, okB := runFingerprint(d, batch, bi)
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
