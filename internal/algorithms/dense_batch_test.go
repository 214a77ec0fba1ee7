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
// stepper capability (core.BatchStepper), and that FlowSum runs on the
// Agent path only.
func TestBatchStepperResolution(t *testing.T) {
	var mid, sw core.Algorithm = algorithms.Midpoint{}, algorithms.SelfWeighted{Alpha: 0.5}
	if _, ok := mid.(core.BatchStepper); !ok {
		t.Fatal("Midpoint lost its batched stepper")
	}
	if _, ok := sw.(core.BatchStepper); ok {
		t.Fatal("SelfWeighted unexpectedly claims a batched stepper")
	}
	if _, ok := core.AsDense(algorithms.NewFlowSum([]int{1, 1})); ok {
		t.Fatal("FlowSum unexpectedly claims a dense stepper")
	}
}

// deltaRows draws a graph whose plan carries subset-delta segments: a
// chain of nested sets S0 ⊂ S1 ⊂ ... (so a base can itself be a delta
// segment), every agent hearing one of them plus itself, and now and
// then a few extra bits anywhere — one-bit and multi-bit deltas in any
// word. One level and no extras is a churn round.
func deltaRows(rng *rand.Rand, n int) graph.Graph {
	w := graph.WordsFor(n)
	levels := make([][]uint64, 1+rng.Intn(4))
	cur := make([]uint64, w)
	for k := range levels {
		for add := 1 + rng.Intn(n/2+1); add > 0; add-- {
			i := rng.Intn(n)
			cur[i/64] |= 1 << uint(i%64)
		}
		levels[k] = append([]uint64(nil), cur...)
	}
	extra := rng.Intn(3)
	b := graph.NewBuilder(n)
	row := make([]uint64, w)
	for j := 0; j < n; j++ {
		copy(row, levels[rng.Intn(len(levels))])
		for k := 0; k < extra; k++ {
			if rng.Intn(4) == 0 {
				i := rng.Intn(n)
				row[i/64] |= 1 << uint(i%64)
			}
		}
		b.SetInRow(j, row)
	}
	return b.Graph()
}

// sameBitsOrNaN reports whether a and b carry the same bits or are both
// NaN.
func sameBitsOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzMeanDeltaFold holds Mean's prefix-shared delta folds to its
// single-run fold bit for bit: a two-run batch (so the graph is stepped
// through a shared plan) and two DenseRunners step the same delta-row
// graphs from inputs drawn from a palette of the fuzzed values, ±0, NaN,
// ±Inf, subnormals and ordinary numbers, and every output must carry the
// same bits, as must every hull that is not NaN.
func FuzzMeanDeltaFold(f *testing.F) {
	f.Add(int64(1), uint16(5), 0.0, math.Copysign(0, -1))
	f.Add(int64(2), uint16(63), math.NaN(), math.Inf(1))
	f.Add(int64(3), uint16(64), math.Inf(-1), math.SmallestNonzeroFloat64)
	f.Add(int64(4), uint16(200), 1e308, -1e308)
	f.Add(int64(5), uint16(129), 0x1p-1030, -0x1p-1074)
	f.Add(int64(6), uint16(255), 0.1, 1e-300)
	f.Add(int64(5), uint16(64), math.Inf(-1), math.SmallestNonzeroFloat64)
	alg := algorithms.Mean{}
	f.Fuzz(func(t *testing.T, seed int64, size uint16, a, b float64) {
		n := 1 + int(size)%256
		rng := rand.New(rand.NewSource(seed))
		palette := []float64{a, b, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, -0x1p-1070, 1, -1.5, 1e300}
		inputs := make([][]float64, 2)
		for r := range inputs {
			// A uniform run (every agent at one palette value, say -0)
			// makes the sum's leading zero and its sign observable.
			uniform := rng.Intn(3) == 0
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				switch {
				case uniform:
					inputs[r][i] = palette[int(seed&0x7fff)%len(palette)]
				case rng.Intn(2) == 0:
					inputs[r][i] = palette[rng.Intn(len(palette))]
				default:
					inputs[r][i] = rng.NormFloat64()
				}
			}
		}
		br := core.NewBatchRunner(alg, inputs)
		singles := []*core.DenseRunner{core.NewDenseRunner(alg, inputs[0]), core.NewDenseRunner(alg, inputs[1])}
		los, his := make([]float64, 2), make([]float64, 2)
		out := make([]float64, n)
		for round := 1; round <= 3; round++ {
			g := deltaRows(rng, n)
			br.StepWithHulls(g, los, his)
			for r, s := range singles {
				s.Step(g)
				br.Outputs(r, out)
				for j, want := range s.Outputs() {
					if math.Float64bits(out[j]) != math.Float64bits(want) {
						t.Fatalf("round %d run %d agent %d: batch %v, single %v", round, r, j, out[j], want)
					}
				}
				// A NaN hull's payload is left out: the batch hull visits a
				// segment's value once, core.Hull every receiver's, and
				// Fmin/Fmax return the canonical NaN only from a second visit.
				lo, hi := s.Hull()
				if !sameBitsOrNaN(los[r], lo) || !sameBitsOrNaN(his[r], hi) {
					t.Fatalf("round %d run %d: batch hull [%v, %v], single [%v, %v]", round, r, los[r], his[r], lo, hi)
				}
			}
		}
	})
}
