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
	"repro/internal/obs"
)

// deafVariant returns the n-node graph where everyone hears everyone
// except agent k, who hears only itself and its successor — churn-style
// graphs with few segments and heavy fold sharing.
func deafVariant(t *testing.T, n, k int) graph.Graph {
	t.Helper()
	full := uint64(1)<<uint(n) - 1
	masks := make([]uint64, n)
	for j := range masks {
		masks[j] = full
	}
	masks[k%n] = 1<<uint(k%n) | 1<<uint((k+1)%n)
	g, err := graph.FromInWords(n, masks)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runFingerprint returns run i's configuration fingerprint, read through
// a view of the batch state.
func runFingerprint(d core.DenseAlgorithm, br *core.BatchRunner, i int) ([]byte, bool) {
	var v core.DenseState
	br.State().View(i, &v)
	return core.AppendDenseFingerprint(d, &v, nil)
}

// assertRunnersEqual asserts every run of the two runners of d carries
// bit-identical outputs and fingerprints.
func assertRunnersEqual(t *testing.T, label string, d core.DenseAlgorithm, a, b *core.BatchRunner) {
	t.Helper()
	if a.B() != b.B() {
		t.Fatalf("%s: batch sizes diverged: %d vs %d", label, a.B(), b.B())
	}
	n := a.N()
	outA, outB := make([]float64, n), make([]float64, n)
	for r := 0; r < a.B(); r++ {
		a.Outputs(r, outA)
		b.Outputs(r, outB)
		for j := 0; j < n; j++ {
			if math.Float64bits(outA[j]) != math.Float64bits(outB[j]) {
				t.Fatalf("%s: run %d agent %d: outputs %v vs %v", label, r, j, outA[j], outB[j])
			}
		}
		fpA, okA := runFingerprint(d, a, r)
		fpB, okB := runFingerprint(d, b, r)
		if okA != okB || (okA && !bytes.Equal(fpA, fpB)) {
			t.Fatalf("%s: run %d: fingerprints diverged", label, r)
		}
	}
}

// stepBothMixed drives the two runners of d through an identical mixed
// round sequence — shared-graph rounds, clustered per-run rounds, hull
// variants, and per-run rounds of mostly distinct graphs — asserting bit
// equality of outputs, fingerprints, and every delivered hull after each
// round.
func stepBothMixed(t *testing.T, d core.DenseAlgorithm, seq, par *core.BatchRunner, n, rounds int) {
	t.Helper()
	b := seq.B()
	gs := make([]graph.Graph, b)
	loS, hiS := make([]float64, b), make([]float64, b)
	loP, hiP := make([]float64, b), make([]float64, b)
	for round := 0; round < rounds; round++ {
		switch round % 5 {
		case 0:
			g := deafVariant(t, n, round)
			seq.Step(g)
			par.Step(g)
		case 1:
			g := shiftGraph(t, n, 1+round%(n-1))
			seq.StepWithHulls(g, loS, hiS)
			par.StepWithHulls(g, loP, hiP)
		case 2:
			for i := range gs {
				gs[i] = deafVariant(t, n, i/3+round)
			}
			seq.StepEach(gs)
			par.StepEach(gs)
		case 3:
			for i := range gs {
				gs[i] = deafVariant(t, n, i/2)
			}
			seq.StepEachWithHulls(gs, loS, hiS)
			par.StepEachWithHulls(gs, loP, hiP)
		case 4:
			for i := range gs {
				gs[i] = shiftGraph(t, n, 1+(i+round)%(n-1))
			}
			seq.StepEach(gs)
			par.StepEach(gs)
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
		assertRunnersEqual(t, fmt.Sprintf("round %d", round), d, seq, par)
	}
}

// TestParallelStepParity pins the determinism contract end to end: a
// runner stepping with 2, 3, 7, or 33 workers (including workers > B
// and B = 1) is bit-identical to the sequential runner on every path —
// shared graphs, clustered per-run graphs, hull delivery, and the
// generic per-view path — for a min/max stepper, an order-sensitive
// batched stepper, and an algorithm with no batched stepper at all.
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
					seq := core.NewBatchRunner(d, testInputs(n, b))
					seq.SetParallelism(1)
					prl := core.NewBatchRunner(d, testInputs(n, b))
					prl.SetParallelism(par)
					stepBothMixed(t, d, seq, prl, n, 20)
				})
			}
		}
	}
}

// TestParallelWorkersExceedRunsParity steps two runs of 64 agents at 16
// workers: far more workers than runs, with graphs of up to 64 distinct
// rows, so most workers have nothing to claim and each task steps one
// whole run over the full segmentation — for each min/max stepper.
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
			seq := core.NewBatchRunner(d, testInputs(n, b))
			seq.SetParallelism(1)
			prl := core.NewBatchRunner(d, testInputs(n, b))
			prl.SetParallelism(16)
			stepBothMixed(t, d, seq, prl, n, 15)
		})
	}
}

// TestParallelTasksNeverExceedRuns pins the one-axis sharding policy: a
// parallel round splits its runs into contiguous whole-run ranges and
// nothing finer, so it makes at most B tasks, and none at all for B = 1,
// which steps sequentially however many workers are configured. It
// reads the shard-task series as TestParallelKernelMetricsParity does,
// on every stepping path and for steppers with and without a batched
// form.
func TestParallelTasksNeverExceedRuns(t *testing.T) {
	defer core.SetObsRegistry(obs.Default())
	reg := obs.NewRegistry()
	core.SetObsRegistry(reg)
	const n, par, rounds = 64, 16, 8
	algs := []core.Algorithm{
		algorithms.Midpoint{},
		algorithms.AmortizedMidpoint{},
		algorithms.SelfWeighted{Alpha: 0.25},
	}
	for _, alg := range algs {
		d, _ := core.AsDense(alg)
		for _, b := range []int{1, 2, 5} {
			br := core.NewBatchRunner(d, testInputs(n, b))
			br.SetParallelism(par)
			gs := make([]graph.Graph, b)
			lo, hi := make([]float64, b), make([]float64, b)
			for round := 0; round < rounds; round++ {
				before := reg.CounterValue("repro_kernel_step_shards_total")
				switch round % 4 {
				case 0:
					br.Step(shiftGraph(t, n, 1+round))
				case 1:
					br.StepWithHulls(deafVariant(t, n, round), lo, hi)
				case 2:
					for i := range gs {
						gs[i] = shiftGraph(t, n, 1+i%2)
					}
					br.StepEach(gs)
				default:
					for i := range gs {
						gs[i] = shiftGraph(t, n, 1+i)
					}
					br.StepEach(gs)
				}
				br.FlushMetrics()
				tasks := reg.CounterValue("repro_kernel_step_shards_total") - before
				minTasks, maxTasks := uint64(1), uint64(b)
				if b == 1 {
					minTasks, maxTasks = 0, 0
				}
				if tasks < minTasks || tasks > maxTasks {
					t.Errorf("%s B=%d round %d: %d tasks at %d workers, want %d to %d",
						alg.Name(), b, round, tasks, par, minTasks, maxTasks)
				}
			}
		}
	}
}

// TestParallelismKnobs pins the knob semantics: explicit settings
// override the process default, 0 reverts to inheriting it, and the
// process default resolves auto to GOMAXPROCS.
func TestParallelismKnobs(t *testing.T) {
	prev := core.SetDefaultBatchParallelism(1)
	defer core.SetDefaultBatchParallelism(prev)

	d, _ := core.AsDense(algorithms.Midpoint{})
	r := core.NewBatchRunner(d, testInputs(4, 2))
	if got := r.Parallelism(); got != 1 {
		t.Fatalf("default parallelism = %d, want 1", got)
	}
	core.SetDefaultBatchParallelism(3)
	if got := r.Parallelism(); got != 3 {
		t.Fatalf("inherited parallelism = %d, want 3", got)
	}
	r.SetParallelism(7)
	if got := r.Parallelism(); got != 7 {
		t.Fatalf("pinned parallelism = %d, want 7", got)
	}
	r.SetParallelism(0)
	if got := r.Parallelism(); got != 3 {
		t.Fatalf("reverted parallelism = %d, want 3", got)
	}
}

// TestParallelZeroAllocSteadyState is the arena-regression gate: after
// warm-up, stepping the full-scale batch (B=1024 at n=64) allocates
// nothing per round — sequentially and with a 4-worker parallel
// fan-out, on per-run graphs cycling through a pool of graphs and on
// Step rounds, which fill the runner-owned graph slice and cluster like
// any other round.
func TestParallelZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale batch in -short mode")
	}
	const n, b = 64, 1024
	pool := make([]graph.Graph, 8)
	for k := range pool {
		pool[k] = deafVariant(t, n, k)
	}
	gs := make([]graph.Graph, b)
	lo, hi := make([]float64, b), make([]float64, b)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			d, _ := core.AsDense(algorithms.Midpoint{})
			br := core.NewBatchRunner(d, testInputs(n, b))
			br.SetParallelism(par)
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
			// Warm-up: admit the graph pool's plans, grow the task list,
			// the worker arenas, and the goroutine stacks.
			for i := 0; i < 32; i++ {
				stepOnce()
			}
			// Retire any in-flight GC cycle and its finalizer backlog:
			// a concurrent cycle drifting into the measurement window
			// charges background runtime allocations to the stepper.
			// With the window itself allocation-free, no new cycle can
			// trigger inside it.
			runtime.GC()
			runtime.GC()
			if allocs := testing.AllocsPerRun(20, stepOnce); allocs != 0 {
				t.Fatalf("steady-state stepping allocates %v times per round, want 0", allocs)
			}
		})
	}
}
