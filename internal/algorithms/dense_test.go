package algorithms_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
)

// denseCase is one algorithm paired with a system size and seeded
// inputs; name labels its subtests.
type denseCase struct {
	name   string
	alg    core.Algorithm
	n      int
	inputs []float64
}

// denseCases returns every dense algorithm of the package paired with a
// system size and seeded inputs, covering all dense steppers: each at a
// one-word size, and — except TwoThirds, which is defined for n = 2
// only — at n = 65 and n = 130, past the first and second mask-word
// boundaries.
func denseCases(rng *rand.Rand) []denseCase {
	randomInputs := func(n int) []float64 {
		in := make([]float64, n)
		for i := range in {
			in[i] = rng.Float64()*2 - 1
		}
		return in
	}
	named := func(suffix string, alg core.Algorithm, n int, inputs []float64) denseCase {
		return denseCase{alg.Name() + suffix, alg, n, inputs}
	}
	cases := []denseCase{
		named("", algorithms.Midpoint{}, 6, randomInputs(6)),
		named("", algorithms.TwoThirds{}, 2, []float64{0, 1}),
		named("", algorithms.Mean{}, 5, randomInputs(5)),
		named("", algorithms.SelfWeighted{Alpha: 0.25}, 5, randomInputs(5)),
		named("", algorithms.AmortizedMidpoint{}, 6, randomInputs(6)),
		named("", algorithms.QuantizedMidpoint{Q: 0.125}, 5, randomInputs(5)),
		named("", algorithms.FloodRoot{Root: 2}, 6, randomInputs(6)),
	}
	for _, n := range []int{65, 130} {
		for _, alg := range []core.Algorithm{
			algorithms.Midpoint{},
			algorithms.Mean{},
			algorithms.SelfWeighted{Alpha: 0.25},
			algorithms.AmortizedMidpoint{},
			algorithms.QuantizedMidpoint{Q: 0.125},
			algorithms.FloodRoot{Root: n - 1},
		} {
			cases = append(cases, named(fmt.Sprintf("/n%d", n), alg, n, randomInputs(n)))
		}
	}
	return cases
}

// TestDenseMatchesAgentsRandomized is the tentpole's differential gate at
// the algorithms layer: on randomized graph sequences, the dense backend
// must reproduce the Agent path bit for bit — every agent's output after
// every round, and the full hidden state via the fingerprint encodings.
func TestDenseMatchesAgentsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range denseCases(rng) {
		t.Run(tc.name, func(t *testing.T) {
			d, ok := core.AsDense(tc.alg)
			if !ok {
				t.Fatalf("%s does not implement the dense backend", tc.alg.Name())
			}
			for trial := 0; trial < 20; trial++ {
				c := core.NewConfig(tc.alg, tc.inputs)
				r := core.NewDenseRunner(d, tc.inputs)
				rounds := 1 + rng.Intn(24)
				for round := 1; round <= rounds; round++ {
					g := graph.Random(rng, tc.n, 0.15+0.7*rng.Float64())
					c = c.Step(g)
					r.Step(g)
					for i := 0; i < tc.n; i++ {
						want, got := c.Output(i), r.Output(i)
						if math.Float64bits(want) != math.Float64bits(got) {
							t.Fatalf("trial %d round %d agent %d: dense output %v != agent output %v",
								trial, round, i, got, want)
						}
					}
					assertSameFingerprint(t, c, d, r.State(),
						fmt.Sprintf("trial %d round %d", trial, round))
				}
			}
		})
	}
}

// assertSameFingerprint compares the full hidden state of the two
// backends via the canonical fingerprints (when the algorithm supports
// them).
func assertSameFingerprint(t *testing.T, c *core.Config, d core.DenseAlgorithm, st *core.DenseState, ctx string) {
	t.Helper()
	agentFP, okA := c.AppendFingerprint(nil)
	denseFP, okD := core.AppendDenseFingerprint(d, st, nil)
	if okA != okD {
		t.Fatalf("%s: fingerprint support differs: agents %v, dense %v", ctx, okA, okD)
	}
	if okA && !bytes.Equal(agentFP, denseFP) {
		t.Fatalf("%s: dense fingerprint differs from agent fingerprint\nagents: %x\ndense:  %x",
			ctx, agentFP, denseFP)
	}
}

// TestDenseBridgeRoundTrip drives the agent path for a prefix, bridges
// the configuration into dense state mid-run, continues both backends,
// and checks the dense continuation and its re-materialized configuration
// stay bit-identical to the pure agent run.
func TestDenseBridgeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range denseCases(rng) {
		t.Run(tc.name, func(t *testing.T) {
			c := core.NewConfig(tc.alg, tc.inputs)
			prefix := make([]graph.Graph, 4)
			for i := range prefix {
				prefix[i] = graph.Random(rng, tc.n, 0.5)
				c = c.Step(prefix[i])
			}
			var cur, next core.DenseState
			if !c.WriteDense(&cur) {
				t.Fatalf("%s: configuration did not bridge into dense state", tc.alg.Name())
			}
			if cur.Round() != c.Round() {
				t.Fatalf("bridge lost the round counter: %d != %d", cur.Round(), c.Round())
			}
			d, _ := core.AsDense(tc.alg)
			for round := 0; round < 12; round++ {
				g := graph.Random(rng, tc.n, 0.5)
				c = c.Step(g)
				core.DenseStep(d, &next, &cur, g)
				cur, next = next, cur
			}
			mat := core.MaterializeDense(d, &cur)
			out := make([]float64, tc.n)
			d.OutputsDense(&cur, out)
			for i := 0; i < tc.n; i++ {
				if math.Float64bits(c.Output(i)) != math.Float64bits(out[i]) {
					t.Fatalf("agent %d: dense continuation diverged", i)
				}
				if math.Float64bits(mat.Output(i)) != math.Float64bits(c.Output(i)) {
					t.Fatalf("agent %d: materialized configuration diverged", i)
				}
			}
			assertSameFingerprint(t, c, d, &cur, "post-continuation")
			if fpA, okA := c.AppendFingerprint(nil); okA {
				fpM, okM := mat.AppendFingerprint(nil)
				if !okM || !bytes.Equal(fpA, fpM) {
					t.Fatal("materialized configuration fingerprint differs from the agent run")
				}
			}
		})
	}
}
