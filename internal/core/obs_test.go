package core_test

import (
	"runtime"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// kernelSeries lists the kernel's counter series.
var kernelSeries = []string{
	"repro_kernel_stepeach_rounds_total",
	"repro_kernel_plan_cache_hits_total",
	"repro_kernel_plan_cache_misses_total",
	"repro_kernel_plan_cache_evictions_total",
	"repro_kernel_plan_cache_deferrals_total",
}

// mixedWorkload cuts 16 fresh runs into k contiguous tiles (k = 1: one
// runner), steps the tiles on `workers` goroutines, and drives each
// through a mixed Step/StepEach schedule designed to move every
// plan-cache counter: a tight cap forces evictions, singleton
// first-sight graphs force deferrals, and pool revisits force
// doorkeeper admissions and memo hits. A run draws the same graphs in
// every cut. Each tile flushes its runner's tally at the end, as a
// sweep tile does.
func mixedWorkload(t *testing.T, k, workers int) {
	t.Helper()
	const n, b, rounds = 32, 16, 40
	pool := make([]graph.Graph, 64)
	for k := range pool {
		pool[k] = deafVariant(n, k%n)
	}
	// deafVariant repeats past n; make the tail distinct by rotation.
	for k := n; k < len(pool); k++ {
		masks := make([]uint64, n)
		full := uint64(1)<<uint(n) - 1
		for j := range masks {
			masks[j] = full
		}
		masks[k%n] = 1<<uint(k%n) | 1<<uint((k+3)%n)
		g, err := graph.FromInWords(n, masks)
		if err != nil {
			t.Fatal(err)
		}
		pool[k] = g
	}
	d, _ := core.AsDense(algorithms.Midpoint{})
	ts := cutTiles(d, testInputs(n, b), k)
	parallel.For(workers, len(ts.rs), func(tile int) {
		br, lo := ts.rs[tile], ts.lo[tile]
		br.SetPlanCacheCap(4)
		gs := make([]graph.Graph, br.B())
		for round := 0; round < rounds; round++ {
			switch round % 3 {
			case 0: // shared-graph round
				br.Step(pool[round%len(pool)])
			case 1: // clustered round, 4 runs per graph
				for i := range gs {
					gs[i] = pool[((lo+i)/4+round)%len(pool)]
				}
				br.StepEach(gs)
			default: // singleton round: every run a first-sight graph
				for i := range gs {
					gs[i] = pool[(round*b+lo+i)%len(pool)]
				}
				br.StepEach(gs)
			}
		}
		br.FlushMetrics()
	})
}

// TestParallelKernelMetricsParity runs under -race in CI: the mixed
// workload cut into four tiles publishes the same kernel series and
// round-latency sample count whether its tiles step one after another
// on one goroutine or each on its own goroutine, all flushing into one
// registry as a sweep's tile group does, and the cut moves the round,
// eviction and deferral series.
func TestParallelKernelMetricsParity(t *testing.T) {
	defer core.SetObsRegistry(obs.Default())
	read := func(workers int) (vals map[string]uint64, histCount uint64) {
		r := obs.NewRegistry()
		core.SetObsRegistry(r)
		mixedWorkload(t, 4, workers)
		vals = make(map[string]uint64, len(kernelSeries))
		for _, name := range kernelSeries {
			vals[name] = r.CounterValue(name)
		}
		h := r.Histogram("repro_kernel_stepeach_round_seconds", "", obs.DurationBuckets())
		return vals, h.Count()
	}
	seq, seqHist := read(1)
	par, parHist := read(4)
	for _, name := range kernelSeries {
		if seq[name] != par[name] {
			t.Errorf("%s: par1 %d vs par4 %d", name, seq[name], par[name])
		}
	}
	if seqHist != parHist {
		t.Errorf("round latency histogram counts: par1 %d vs par4 %d", seqHist, parHist)
	}
	if seq["repro_kernel_stepeach_rounds_total"] == 0 ||
		seq["repro_kernel_plan_cache_evictions_total"] == 0 ||
		seq["repro_kernel_plan_cache_deferrals_total"] == 0 {
		t.Fatalf("workload did not move the counters it is built to move: %v", seq)
	}
}

// TestKernelMetricsPublishedPerWindow pins the publication contract:
// stepping publishes the tally once per obsPublishEvery (64) rounds,
// FlushMetrics publishes the rest, and after the flush the round series
// equals the rounds stepped, the plan-cache series equal the runner's
// PlanCacheStats, and the latency histogram holds one timed round per
// window of StepEach rounds.
func TestKernelMetricsPublishedPerWindow(t *testing.T) {
	defer core.SetObsRegistry(obs.Default())
	r := obs.NewRegistry()
	core.SetObsRegistry(r)
	const n, b, rounds = 16, 2, 100
	pool := make([]graph.Graph, 16)
	for k := range pool {
		pool[k] = deafVariant(n, k)
	}
	d, _ := core.AsDense(algorithms.Midpoint{})
	br := core.NewBatchRunner(d, testInputs(n, b))
	gs := make([]graph.Graph, b)
	los, his := make([]float64, b), make([]float64, b)
	for round := 0; round < rounds; round++ {
		for i := range gs {
			gs[i] = pool[(3*round+5*i)%len(pool)]
		}
		br.StepEachWithHulls(gs, los, his)
		want := uint64(0)
		if round+1 >= 64 {
			want = 64
		}
		if got := r.CounterValue("repro_kernel_stepeach_rounds_total"); got != want {
			t.Fatalf("after %d rounds the series reads %d, want %d", round+1, got, want)
		}
	}
	br.FlushMetrics()
	br.FlushMetrics() // nothing pending: must not double-publish
	if got := r.CounterValue("repro_kernel_stepeach_rounds_total"); got != rounds {
		t.Errorf("after the flush the series reads %d rounds, want %d", got, rounds)
	}
	hits, misses, evicts, defers, _ := br.PlanCacheStats()
	for name, want := range map[string]uint64{
		"repro_kernel_plan_cache_hits_total":      hits,
		"repro_kernel_plan_cache_misses_total":    misses,
		"repro_kernel_plan_cache_evictions_total": evicts,
		"repro_kernel_plan_cache_deferrals_total": defers,
	} {
		if got := r.CounterValue(name); got != want {
			t.Errorf("%s = %d, PlanCacheStats says %d", name, got, want)
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("workload did not exercise the plan cache: hits %d misses %d", hits, misses)
	}
	h := r.Histogram("repro_kernel_stepeach_round_seconds", "", obs.DurationBuckets())
	if got := h.Count(); got != 2 {
		t.Errorf("histogram timed %d rounds of %d, want 2 (rounds 1 and 65)", got, rounds)
	}
}

// TestKernelNoopRegistryRecordsNothing binds the kernel to a live
// registry, checks the mixed workload moved the round, eviction and
// deferral series and that PlanCacheCounts reads the bound plan-cache
// series, detaches it (the overhead gates' baseline), steps more rounds
// on four concurrent tiles, and verifies the detached period left no
// trace and PlanCacheCounts read zeros meanwhile.
func TestKernelNoopRegistryRecordsNothing(t *testing.T) {
	defer core.SetObsRegistry(obs.Default())
	r := obs.NewRegistry()
	core.SetObsRegistry(r)
	mixedWorkload(t, 1, 1)
	before := make(map[string]uint64, len(kernelSeries))
	for _, name := range kernelSeries {
		before[name] = r.CounterValue(name)
	}
	if before["repro_kernel_stepeach_rounds_total"] == 0 ||
		before["repro_kernel_plan_cache_evictions_total"] == 0 ||
		before["repro_kernel_plan_cache_deferrals_total"] == 0 {
		t.Fatalf("workload did not move the counters it is built to move: %v", before)
	}
	counts := func() [4]uint64 {
		h, m, e, d := core.PlanCacheCounts()
		return [4]uint64{h, m, e, d}
	}
	if got, want := counts(), [4]uint64{
		before["repro_kernel_plan_cache_hits_total"], before["repro_kernel_plan_cache_misses_total"],
		before["repro_kernel_plan_cache_evictions_total"], before["repro_kernel_plan_cache_deferrals_total"],
	}; got != want {
		t.Errorf("PlanCacheCounts = %v, the bound registry holds %v", got, want)
	}
	core.SetObsRegistry(nil)
	mixedWorkload(t, 4, 4)
	if got := counts(); got != [4]uint64{} {
		t.Errorf("PlanCacheCounts = %v while detached, want zeros", got)
	}
	core.SetObsRegistry(r)
	for _, name := range kernelSeries {
		if got := r.CounterValue(name); got != before[name] {
			t.Errorf("%s moved while detached: %d -> %d", name, before[name], got)
		}
	}
}

// TestInstrumentedSteppingZeroAlloc extends the steady-state
// allocation gate to instrumented stepping: with a live registry
// bound, the per-round sampling (clock reads, histogram observe,
// counter deltas) must allocate nothing.
func TestInstrumentedSteppingZeroAlloc(t *testing.T) {
	defer core.SetObsRegistry(obs.Default())
	core.SetObsRegistry(obs.NewRegistry())
	const n, b = 64, 256
	pool := make([]graph.Graph, 8)
	for k := range pool {
		pool[k] = deafVariant(n, k)
	}
	gs := make([]graph.Graph, b)
	d, _ := core.AsDense(algorithms.Midpoint{})
	br := core.NewBatchRunner(d, testInputs(n, b))
	round := 0
	stepOnce := func() {
		for i := range gs {
			gs[i] = pool[(i/32+round)%len(pool)]
		}
		br.StepEach(gs)
		round++
	}
	for i := 0; i < 32; i++ {
		stepOnce()
	}
	runtime.GC()
	runtime.GC()
	if allocs := testing.AllocsPerRun(20, stepOnce); allocs != 0 {
		t.Fatalf("instrumented steady-state StepEach allocates %v times per round, want 0", allocs)
	}
}
