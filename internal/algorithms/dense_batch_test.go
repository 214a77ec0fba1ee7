package algorithms_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// randomBatchGraph draws graphs biased towards the paper's shared-mask
// families (complete, deaf, identity) half the time, so the batched
// steppers' segment fold-sharing is exercised, and fully random graphs
// the other half.
func randomBatchGraph(rng *rand.Rand, n int) graph.Graph {
	switch rng.Intn(4) {
	case 0:
		return graph.Complete(n)
	case 1:
		return graph.Deaf(graph.Complete(n), rng.Intn(n))
	default:
		return graph.Random(rng, n, 0.15+0.7*rng.Float64())
	}
}

// batchParityCheck steps a BatchRunner and B independent DenseRunners
// through the same graph sequence and asserts bit-identical outputs and
// fingerprints run by run, round by round.
func batchParityCheck(t *testing.T, alg core.Algorithm, n, b, rounds int, rng *rand.Rand, perRunGraphs bool) {
	t.Helper()
	batchParityCheckPar(t, alg, n, b, rounds, rng, perRunGraphs, 1)
}

// batchParityCheckPar is batchParityCheck with the batch cut as a sweep
// cuts a tile group: par contiguous tiles of ceil(b/par) runs, each a
// BatchRunner stepped on its own goroutine. The single runners stay the
// sequential reference, so any par proves the cut changes no bit.
func batchParityCheckPar(t *testing.T, alg core.Algorithm, n, b, rounds int, rng *rand.Rand, perRunGraphs bool, par int) {
	t.Helper()
	d, ok := core.AsDense(alg)
	if !ok {
		t.Fatalf("%s does not implement the dense backend", alg.Name())
	}
	inputs := make([][]float64, b)
	for r := range inputs {
		inputs[r] = make([]float64, n)
		for i := range inputs[r] {
			inputs[r][i] = rng.Float64()*2 - 1
		}
	}
	size := (b + par - 1) / par
	var tiles []*core.BatchRunner
	for first := 0; first < b; first += size {
		tiles = append(tiles, core.NewBatchRunner(d, inputs[first:min(first+size, b)]))
	}
	singles := make([]*core.DenseRunner, b)
	for r := range singles {
		singles[r] = core.NewDenseRunner(d, inputs[r])
	}
	out := make([]float64, n)
	gs := make([]graph.Graph, b)
	var view core.DenseState
	for round := 1; round <= rounds; round++ {
		if perRunGraphs {
			for r := range gs {
				gs[r] = randomBatchGraph(rng, n)
			}
		} else {
			g := randomBatchGraph(rng, n)
			for r := range gs {
				gs[r] = g
			}
		}
		parallel.For(len(tiles), len(tiles), func(k int) {
			tile := gs[k*size : k*size+tiles[k].B()]
			if perRunGraphs {
				tiles[k].StepEach(tile)
			} else {
				tiles[k].Step(tile[0])
			}
		})
		for r := 0; r < b; r++ {
			batch, ti := tiles[r/size], r%size
			singles[r].Step(gs[r])
			batch.Outputs(ti, out)
			for i := 0; i < n; i++ {
				want, got := singles[r].Output(i), out[i]
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("round %d run %d agent %d: batch output %v != single output %v",
						round, r, i, got, want)
				}
			}
			wantFP, okW := core.AppendDenseFingerprint(d, singles[r].State(), nil)
			batch.State().View(ti, &view)
			gotFP, okG := core.AppendDenseFingerprint(d, &view, nil)
			if okW != okG {
				t.Fatalf("round %d run %d: fingerprint support differs: single %v, batch %v", round, r, okW, okG)
			}
			if okW && !bytes.Equal(wantFP, gotFP) {
				t.Fatalf("round %d run %d: batch fingerprint differs from single\nsingle: %x\nbatch:  %x",
					round, r, wantFP, gotFP)
			}
			if hw, hg := singlesDiameter(singles[r]), batch.Diameter(ti); math.Float64bits(hw) != math.Float64bits(hg) {
				t.Fatalf("round %d run %d: batch diameter %v != single diameter %v", round, r, hg, hw)
			}
		}
	}
}

func singlesDiameter(r *core.DenseRunner) float64 { return r.Diameter() }

// TestBatchMatchesSinglesRandomized is the batch plane's differential
// gate: for every dense algorithm (batched stepper or generic per-view
// path), a BatchRunner must be bit-identical to B independent
// DenseRunners — outputs, diameters, and full hidden state via the
// fingerprint encodings — under both shared and per-run graph sequences.
func TestBatchMatchesSinglesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for _, tc := range denseCases(rng) {
		for _, perRun := range []bool{false, true} {
			name := tc.name + "/shared"
			if perRun {
				name = tc.name + "/per-run"
			}
			t.Run(name, func(t *testing.T) {
				for trial := 0; trial < 8; trial++ {
					b := 1 + rng.Intn(7)
					rounds := 1 + rng.Intn(16)
					batchParityCheck(t, tc.alg, tc.n, b, rounds, rng, perRun)
				}
			})
		}
	}
}

// TestBatchStepperResolution pins which algorithms advertise the batched
// stepper capability through core.AsBatchStepper, and that FlowSum runs
// on the Agent path only.
func TestBatchStepperResolution(t *testing.T) {
	if _, ok := core.AsBatchStepper(algorithms.Midpoint{}); !ok {
		t.Fatal("Midpoint lost its batched stepper")
	}
	if _, ok := core.AsBatchStepper(algorithms.SelfWeighted{Alpha: 0.5}); ok {
		t.Fatal("SelfWeighted unexpectedly claims a batched stepper")
	}
	if _, ok := core.AsDense(algorithms.NewFlowSum([]int{1, 1})); ok {
		t.Fatal("FlowSum unexpectedly claims a dense stepper")
	}
}
