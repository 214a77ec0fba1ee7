package core_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Tile-cut parity: a sweep spreads a tile group's runs over cores by
// cutting them into contiguous tiles, one sequential BatchRunner each,
// stepped on the goroutine that runs it. A cut changes which runs share
// a round's clusters, so a graph that one runner steps through a cached
// plan another may step as a deferred singleton; every cut must still
// store the bits one runner of the whole batch stores.

// tiles is a batch cut as Sweep cuts a tile group: ceil(B/k) contiguous
// runs per tile, so never more tiles than runs. rs[k] holds runs lo[k]
// to lo[k]+rs[k].B()-1.
type tiles struct {
	rs []*core.BatchRunner
	lo []int
}

func cutTiles(d core.DenseAlgorithm, inputs [][]float64, k int) *tiles {
	size := (len(inputs) + k - 1) / k
	ts := &tiles{}
	for first := 0; first < len(inputs); first += size {
		ts.rs = append(ts.rs, core.NewBatchRunner(d, inputs[first:min(first+size, len(inputs))]))
		ts.lo = append(ts.lo, first)
	}
	return ts
}

// step calls f for every tile, each on its own goroutine, with the
// bounds [lo, hi) of the tile's runs in the whole batch.
func (ts *tiles) step(f func(br *core.BatchRunner, lo, hi int)) {
	parallel.For(len(ts.rs), len(ts.rs), func(k int) {
		f(ts.rs[k], ts.lo[k], ts.lo[k]+ts.rs[k].B())
	})
}

// run returns the tile holding run i and i's index within it.
func (ts *tiles) run(i int) (*core.BatchRunner, int) {
	k := len(ts.lo) - 1
	for ts.lo[k] > i {
		k--
	}
	return ts.rs[k], i - ts.lo[k]
}

// runFingerprint returns run i's configuration fingerprint, read through
// a view of the batch state.
func runFingerprint(d core.DenseAlgorithm, br *core.BatchRunner, i int) ([]byte, bool) {
	var v core.DenseState
	br.State().View(i, &v)
	return core.AppendDenseFingerprint(d, &v, nil)
}

// assertRunnersEqual asserts every run of the whole runner and of the
// cut carries bit-identical outputs and fingerprints.
func assertRunnersEqual(t *testing.T, label string, d core.DenseAlgorithm, whole *core.BatchRunner, cut *tiles) {
	t.Helper()
	n := whole.N()
	outA, outB := make([]float64, n), make([]float64, n)
	for r := 0; r < whole.B(); r++ {
		br, i := cut.run(r)
		whole.Outputs(r, outA)
		br.Outputs(i, outB)
		for j := 0; j < n; j++ {
			if math.Float64bits(outA[j]) != math.Float64bits(outB[j]) {
				t.Fatalf("%s: run %d agent %d: outputs %v vs %v", label, r, j, outA[j], outB[j])
			}
		}
		fpA, okA := runFingerprint(d, whole, r)
		fpB, okB := runFingerprint(d, br, i)
		if okA != okB || (okA && !bytes.Equal(fpA, fpB)) {
			t.Fatalf("%s: run %d: fingerprints diverged", label, r)
		}
	}
}

// stepBothMixed drives the whole runner and the cut through an
// identical mixed round sequence — shared-graph rounds, clustered
// per-run rounds, hull variants, and per-run rounds of mostly distinct
// graphs — asserting bit equality of outputs, fingerprints, and every
// delivered hull after each round.
func stepBothMixed(t *testing.T, d core.DenseAlgorithm, whole *core.BatchRunner, cut *tiles, n, rounds int) {
	t.Helper()
	b := whole.B()
	gs := make([]graph.Graph, b)
	loS, hiS := make([]float64, b), make([]float64, b)
	loP, hiP := make([]float64, b), make([]float64, b)
	for round := 0; round < rounds; round++ {
		switch round % 5 {
		case 0:
			g := deafVariant(n, round)
			whole.Step(g)
			cut.step(func(br *core.BatchRunner, lo, hi int) { br.Step(g) })
		case 1:
			g := shiftGraph(n, 1+round%(n-1))
			whole.StepWithHulls(g, loS, hiS)
			cut.step(func(br *core.BatchRunner, lo, hi int) { br.StepWithHulls(g, loP[lo:hi], hiP[lo:hi]) })
		case 2:
			for i := range gs {
				gs[i] = deafVariant(n, i/3+round)
			}
			whole.StepEach(gs)
			cut.step(func(br *core.BatchRunner, lo, hi int) { br.StepEach(gs[lo:hi]) })
		case 3:
			for i := range gs {
				gs[i] = deafVariant(n, i/2)
			}
			whole.StepEachWithHulls(gs, loS, hiS)
			cut.step(func(br *core.BatchRunner, lo, hi int) { br.StepEachWithHulls(gs[lo:hi], loP[lo:hi], hiP[lo:hi]) })
		case 4:
			for i := range gs {
				gs[i] = shiftGraph(n, 1+(i+round)%(n-1))
			}
			whole.StepEach(gs)
			cut.step(func(br *core.BatchRunner, lo, hi int) { br.StepEach(gs[lo:hi]) })
		}
		if round%5 == 1 || round%5 == 3 {
			for i := 0; i < b; i++ {
				if math.Float64bits(loS[i]) != math.Float64bits(loP[i]) ||
					math.Float64bits(hiS[i]) != math.Float64bits(hiP[i]) {
					t.Fatalf("round %d run %d: hulls diverged: [%v,%v] vs [%v,%v]",
						round, i, loS[i], hiS[i], loP[i], hiP[i])
				}
			}
		}
		assertRunnersEqual(t, fmt.Sprintf("round %d", round), d, whole, cut)
	}
}

// TestParallelStepParity pins the tile axis end to end: a batch cut
// into 2, 3, 7 or 33 tiles (one per run when there are fewer runs,
// B = 1 included), each stepped on its own goroutine, is bit-identical
// to one runner of the whole batch on every path — shared graphs,
// clustered per-run graphs, hull delivery, and the generic per-view
// path — for a min/max stepper, an order-sensitive batched stepper, and
// an algorithm with no batched stepper at all.
func TestParallelStepParity(t *testing.T) {
	algs := []core.Algorithm{
		algorithms.Midpoint{},
		algorithms.Mean{},
		algorithms.SelfWeighted{Alpha: 0.25},
	}
	for _, alg := range algs {
		d, ok := core.AsDense(alg)
		if !ok {
			t.Fatalf("%s has no dense backend", alg.Name())
		}
		for _, b := range []int{1, 5, 16} {
			for _, par := range []int{2, 3, 7, 33} {
				t.Run(fmt.Sprintf("%s/b%d/par%d", alg.Name(), b, par), func(t *testing.T) {
					const n = 9
					whole := core.NewBatchRunner(d, testInputs(n, b))
					stepBothMixed(t, d, whole, cutTiles(d, testInputs(n, b), par), n, 20)
				})
			}
		}
	}
}

// TestParallelWorkersExceedRunsParity cuts two runs of 64 agents for 16
// workers: one tile per run, each stepping graphs of up to 64 distinct
// rows alone, so every first-sight graph a shared runner would cluster
// is a deferred singleton in its tile — for each min/max stepper.
func TestParallelWorkersExceedRunsParity(t *testing.T) {
	algs := []core.Algorithm{
		algorithms.Midpoint{},
		algorithms.QuantizedMidpoint{Q: 0.125},
		algorithms.AmortizedMidpoint{},
	}
	const n, b = 64, 2
	for _, alg := range algs {
		d, _ := core.AsDense(alg)
		t.Run(alg.Name(), func(t *testing.T) {
			whole := core.NewBatchRunner(d, testInputs(n, b))
			stepBothMixed(t, d, whole, cutTiles(d, testInputs(n, b), 16), n, 15)
		})
	}
}

// TestParallelZeroAllocSteadyState is the arena-regression gate: after
// warm-up, stepping the full-scale batch (B=1024 at n=64) as one tile
// on the calling goroutine (par1), as every sweep tile steps, allocates
// nothing per round, on per-run graphs cycling through a pool of graphs
// and on Step rounds, which fill the runner-owned graph slice and
// cluster like any other round.
func TestParallelZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale batch in -short mode")
	}
	const n, b = 64, 1024
	pool := make([]graph.Graph, 8)
	for k := range pool {
		pool[k] = deafVariant(n, k)
	}
	gs := make([]graph.Graph, b)
	lo, hi := make([]float64, b), make([]float64, b)
	t.Run("par1", func(t *testing.T) {
		d, _ := core.AsDense(algorithms.Midpoint{})
		br := core.NewBatchRunner(d, testInputs(n, b))
		round := 0
		stepOnce := func() {
			switch round % 3 {
			case 1:
				br.Step(pool[round%len(pool)])
			case 2:
				br.StepWithHulls(pool[round%len(pool)], lo, hi)
			default:
				for i := range gs {
					gs[i] = pool[(i/128+round)%len(pool)]
				}
				br.StepEach(gs)
			}
			round++
		}
		// Warm-up: admit the graph pool's plans and grow the pooled
		// clustering scratch.
		for i := 0; i < 32; i++ {
			stepOnce()
		}
		// Retire any in-flight GC cycle and its finalizer backlog: a
		// concurrent cycle drifting into the measurement window charges
		// background runtime allocations to the stepper. With the window
		// itself allocation-free, no new cycle can trigger inside it.
		runtime.GC()
		runtime.GC()
		if allocs := testing.AllocsPerRun(20, stepOnce); allocs != 0 {
			t.Fatalf("steady-state stepping allocates %v times per round, want 0", allocs)
		}
	})
}
