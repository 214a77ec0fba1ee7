package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file measures the raw batch kernel on a large-n workload,
// bypassing the sweep machinery so the numbers isolate core.BatchRunner
// stepping: at w workers the batch is cut into w contiguous tiles of
// sequential runners stepped on w goroutines, as Sweep runs a tile
// group, against one runner of the whole batch on one goroutine. The
// dense plane encodes in-neighbor sets as word-sliced bitmasks
// (W = ⌈n/64⌉ words per row), so n is no longer capped at one machine
// word; the series runs at n = 256 (four words per row) to exercise the
// folds over wide rows, while B carries the batch scale.
const (
	largeN     = 256
	largeBatch = 1024
)

// parallelEntry is one (workload, worker-count) measurement of the
// large-n series.
type parallelEntry struct {
	Workload string `json:"workload"`
	Workers  int    `json:"workers"`
	MedianNs int64  `json:"median_ns"`
	// RunRoundsPerSec is B×rounds per second — row-steps of the kernel.
	RunRoundsPerSec float64 `json:"run_rounds_per_sec"`
}

// parallelReport is the BENCH_PR10 "parallel" section: the large-n
// kernel series per worker count (1, 2, 4, ... up to GOMAXPROCS, with 4
// always included when the machine has it) for the shared-graph
// amortized workload and the churn-clustered StepEach workload.
type parallelReport struct {
	N      int             `json:"n"`
	Batch  int             `json:"batch"`
	Rounds int             `json:"rounds"`
	Series []parallelEntry `json:"series"`
	// StepEachSpeedup4W is the churn StepEach workload's one-runner
	// median over its four-tile median — the multi-core CI gate. 0 when
	// the machine has fewer than 4 schedulable CPUs (the series then
	// carries no 4-worker point; single-CPU baselines stay honest).
	StepEachSpeedup4W float64 `json:"largen_stepeach_speedup_4w"`
	// StepSpeedup4W is the same ratio for the shared-graph workload.
	StepSpeedup4W float64 `json:"largen_step_speedup_4w"`
}

// largeGraphs builds the workload's graph pool: deaf-style variants of
// the complete graph — everyone hears everyone, except variant k's
// agent k hears only itself and agent (k+1) mod n. Few segments per
// graph (the fold-sharing regime the plan cache is built for), n
// distinct graphs for clustering to chew on.
func largeGraphs(n int) []graph.Graph {
	w := graph.WordsFor(n)
	full := make([]uint64, w)
	for i := 0; i < n; i++ {
		full[i/64] |= 1 << uint(i%64)
	}
	deaf := make([]uint64, w)
	gs := make([]graph.Graph, n)
	for k := 0; k < n; k++ {
		b := graph.NewBuilder(n)
		for j := 0; j < n; j++ {
			b.SetInRow(j, full)
		}
		for i := range deaf {
			deaf[i] = 0
		}
		deaf[k/64] |= 1 << uint(k%64)
		next := (k + 1) % n
		deaf[next/64] |= 1 << uint(next%64)
		b.SetInRow(k, deaf)
		gs[k] = b.Graph()
	}
	return gs
}

// largeInputs spreads B distinct input vectors over [0, 1].
func largeInputs(b, n int) [][]float64 {
	inputs := make([][]float64, b)
	for r := range inputs {
		in := make([]float64, n)
		for j := range in {
			in[j] = float64((r+j*7)%b) / float64(b)
		}
		inputs[r] = in
	}
	return inputs
}

// workerSeries returns the worker counts to measure: powers of two up
// to GOMAXPROCS, plus 4 whenever the machine can schedule it.
func workerSeries(maxProcs int) []int {
	series := []int{1}
	for w := 2; w <= maxProcs; w *= 2 {
		series = append(series, w)
	}
	if maxProcs >= 4 {
		has4 := false
		for _, w := range series {
			has4 = has4 || w == 4
		}
		if !has4 {
			series = append(series, 4)
			sort.Ints(series)
		}
	}
	return series
}

// benchLargeN measures the large-n kernel at every worker count of the
// series, one tile per worker, and returns the report section. Two
// workloads:
//
//   - step/amortized: every run steps under one shared per-round graph
//     (cycling through the pool) with the 3-plane amortized-midpoint
//     stepper — Step rounds, one cluster through one plan, hulls
//     included.
//   - stepeach/churn: per-run graphs, 16 runs per graph and the
//     assignment rotating every round — 64 clusters per round through
//     cached plans, the scenario-grid regime.
//
// Within one workload the samples at different worker counts interleave
// so machine-load drift lands on every series point alike.
func benchLargeN(out io.Writer, samples, rounds, n, maxProcs int) (*parallelReport, error) {
	if rounds < 1 {
		rounds = 1
	}
	b := largeBatch
	pool := largeGraphs(n)
	inputs := largeInputs(b, n)
	series := workerSeries(maxProcs)

	gs := make([]graph.Graph, b)
	los, his := make([]float64, b), make([]float64, b)

	// cut builds the tiles, before the clock starts: contiguous runs,
	// ceil(b/workers) per tile, as Sweep cuts a tile group. lo[k] is
	// tile k's first run.
	cut := func(alg core.DenseAlgorithm, workers int) (tiles []*core.BatchRunner, lo []int) {
		size := (b + workers - 1) / workers
		for first := 0; first < b; first += size {
			tiles = append(tiles, core.NewBatchRunner(alg, inputs[first:min(first+size, b)]))
			lo = append(lo, first)
		}
		return tiles, lo
	}
	stepOnce := func(workers int) time.Duration {
		tiles, lo := cut(algorithms.AmortizedMidpoint{}, workers)
		start := time.Now()
		parallel.For(workers, len(tiles), func(k int) {
			br := tiles[k]
			tl, th := los[lo[k]:lo[k]+br.B()], his[lo[k]:lo[k]+br.B()]
			for round := 0; round < rounds; round++ {
				br.StepWithHulls(pool[round%len(pool)], tl, th)
			}
		})
		return time.Since(start)
	}
	stepEachOnce := func(workers int) time.Duration {
		tiles, lo := cut(algorithms.Midpoint{}, workers)
		start := time.Now()
		parallel.For(workers, len(tiles), func(k int) {
			br := tiles[k]
			tgs := gs[lo[k] : lo[k]+br.B()]
			for round := 0; round < rounds; round++ {
				for i := range tgs {
					tgs[i] = pool[((lo[k]+i)/16+round)%len(pool)]
				}
				br.StepEach(tgs)
			}
		})
		return time.Since(start)
	}

	measure := func(f func(int) time.Duration) map[int]int64 {
		durs := make(map[int][]time.Duration, len(series))
		f(series[0]) // warm the plan caches' allocator and the CPU
		for s := 0; s < samples; s++ {
			for _, w := range series {
				durs[w] = append(durs[w], f(w))
			}
		}
		medians := make(map[int]int64, len(series))
		for w, d := range durs {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			medians[w] = d[len(d)/2].Nanoseconds()
		}
		return medians
	}

	stepMed := measure(stepOnce)
	eachMed := measure(stepEachOnce)

	rep := &parallelReport{N: n, Batch: b, Rounds: rounds}
	perSec := func(ns int64) float64 {
		if ns <= 0 {
			return 0
		}
		return float64(b) * float64(rounds) / (float64(ns) / 1e9)
	}
	for _, w := range series {
		rep.Series = append(rep.Series, parallelEntry{
			Workload: "largen-step/amortized", Workers: w,
			MedianNs: stepMed[w], RunRoundsPerSec: perSec(stepMed[w]),
		})
	}
	for _, w := range series {
		rep.Series = append(rep.Series, parallelEntry{
			Workload: "largen-stepeach/churn", Workers: w,
			MedianNs: eachMed[w], RunRoundsPerSec: perSec(eachMed[w]),
		})
	}
	if ns4, ok := eachMed[4]; ok && ns4 > 0 {
		rep.StepEachSpeedup4W = float64(eachMed[1]) / float64(ns4)
	}
	if ns4, ok := stepMed[4]; ok && ns4 > 0 {
		rep.StepSpeedup4W = float64(stepMed[1]) / float64(ns4)
	}
	for _, e := range rep.Series {
		fmt.Fprintf(out, "%-24s w=%-2d %12d ns  %10.0f run-rounds/s\n",
			e.Workload, e.Workers, e.MedianNs, e.RunRoundsPerSec)
	}
	if rep.StepEachSpeedup4W > 0 || rep.StepSpeedup4W > 0 {
		fmt.Fprintf(out, "large-n 4-worker speedup %.2fx (stepeach), %.2fx (step)\n",
			rep.StepEachSpeedup4W, rep.StepSpeedup4W)
	}
	return rep, nil
}
