package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// This file measures what the observability plane costs where it could
// hurt: the batch kernel's stepping loop. The kernel tallies each round
// in plain runner fields and publishes the tally (and times one round)
// once per 64 rounds, so the relative overhead is highest when rounds
// are cheapest. Two series bracket it: the churn StepEach workload at
// n=64 with B=512 runs, where a round's fixed cost spreads over many
// runs, and the shape of grid-narrow's small sweep tiles — two runs at
// n=16 stepped with hulls — where a round costs well under a
// microsecond and any per-round instrumentation shows most.
const (
	obsN     = 64
	obsBatch = 512

	obsSmallN     = 16
	obsSmallBatch = 2
	// obsSmallRoundScale stretches the small series' samples to
	// milliseconds: its rounds are ~500x cheaper than the large series'.
	obsSmallRoundScale = 64
	// obsSmallSampleScale takes more interleaved samples for the small
	// series, whose millisecond samples are noisier.
	obsSmallSampleScale = 10
)

// obsReport is one BENCH obs series: the same kernel workload stepped
// with a live metrics registry bound and with the registry detached
// (the REPRO_OBS=off state), interleaved samples, medians.
type obsReport struct {
	N      int `json:"n"`
	Batch  int `json:"batch"`
	Rounds int `json:"rounds"`
	// InstrumentedNs / DetachedNs are the median workload wall times
	// with obs on and off.
	InstrumentedNs int64 `json:"instrumented_median_ns"`
	DetachedNs     int64 `json:"detached_median_ns"`
	// Overhead is instrumented/detached — the CI gate holds it at or
	// under 1.02.
	Overhead float64 `json:"overhead"`
}

// benchObs measures the n=64, B=512 churn StepEach pair.
func benchObs(out io.Writer, samples, rounds int) *obsReport {
	b := obsBatch
	pool := largeGraphs(obsN)[:16]
	gs := make([]graph.Graph, b)
	return measureObs(out, "obs", obsN, b, min(4, runtime.GOMAXPROCS(0)), samples, rounds,
		func(br *core.BatchRunner, round int) {
			for i := 0; i < b; i++ {
				gs[i] = pool[(i/16+round)%len(pool)]
			}
			br.StepEach(gs)
		})
}

// benchObsSmall measures the n=16, B=2 pair: StepEachWithHulls over a
// 16-graph pool, the two runs on different graphs every round, stepped
// sequentially as a sweep tile is.
func benchObsSmall(out io.Writer, samples, rounds int) *obsReport {
	b := obsSmallBatch
	pool := largeGraphs(obsSmallN)
	gs := make([]graph.Graph, b)
	los, his := make([]float64, b), make([]float64, b)
	return measureObs(out, "obs-small", obsSmallN, b, 1, samples*obsSmallSampleScale, rounds*obsSmallRoundScale,
		func(br *core.BatchRunner, round int) {
			for i := 0; i < b; i++ {
				gs[i] = pool[(round+5*i)%len(pool)]
			}
			br.StepEachWithHulls(gs, los, his)
		})
}

// measureObs times rounds of step on a fresh n-agent, b-run Midpoint
// runner per sample, flushing its metrics as a sweep tile does. The
// instrumented and detached variants alternate within each sample so
// machine-load drift lands on both sides of the ratio.
func measureObs(out io.Writer, name string, n, b, par, samples, rounds int, step func(br *core.BatchRunner, round int)) *obsReport {
	if rounds < 1 {
		rounds = 1
	}
	defer core.SetObsRegistry(obs.Default())
	inputs := largeInputs(b, n)

	stepOnce := func(reg *obs.Registry) time.Duration {
		core.SetObsRegistry(reg)
		br := core.NewBatchRunner(algorithms.Midpoint{}, inputs)
		br.SetParallelism(par)
		start := time.Now()
		for round := 0; round < rounds; round++ {
			step(br, round)
		}
		br.FlushMetrics()
		return time.Since(start)
	}

	// A fresh live registry rather than obs.Default(), so the series
	// measures the instrumented path even under REPRO_OBS=off.
	live := obs.NewRegistry()
	stepOnce(live) // warm the pool, the plan caches' allocator, and the CPU
	var on, off []time.Duration
	for s := 0; s < samples; s++ {
		off = append(off, stepOnce(nil))
		on = append(on, stepOnce(live))
	}
	median := func(d []time.Duration) int64 {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2].Nanoseconds()
	}
	rep := &obsReport{
		N: n, Batch: b, Rounds: rounds,
		InstrumentedNs: median(on),
		DetachedNs:     median(off),
	}
	if rep.DetachedNs > 0 {
		rep.Overhead = float64(rep.InstrumentedNs) / float64(rep.DetachedNs)
	}
	fmt.Fprintf(out, "%-24s %12d ns  detached %12d ns  overhead %.4fx\n",
		name+"/instrumented", rep.InstrumentedNs, rep.DetachedNs, rep.Overhead)
	return rep
}
