package core_test

import (
	"runtime"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// kernelSeries lists the kernel metric names whose values must be
// bitwise parallelism-invariant: clustering, admission, eviction, and
// deferral all run on the coordinating goroutine before tasks launch
// (the determinism contract in parallel.go), so the flushed plan
// series cannot depend on the worker count. The shard-task counter is
// deliberately absent — it measures the fan-out itself.
var kernelSeries = []string{
	"repro_kernel_stepeach_rounds_total",
	"repro_kernel_plan_cache_hits_total",
	"repro_kernel_plan_cache_misses_total",
	"repro_kernel_plan_cache_evictions_total",
	"repro_kernel_plan_cache_deferrals_total",
}

// mixedWorkload steps a fresh runner through a mixed Step/StepEach
// schedule designed to move every plan-cache counter: a tight cap
// forces evictions, singleton first-sight graphs force deferrals, and
// pool revisits force doorkeeper admissions and memo hits. It flushes
// the runner's tally at the end, as a sweep tile does.
func mixedWorkload(t *testing.T, par int) {
	t.Helper()
	const n, b, rounds = 32, 16, 40
	pool := make([]graph.Graph, 64)
	for k := range pool {
		pool[k] = deafVariant(t, n, k%n)
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
	br := core.NewBatchRunner(d, testInputs(n, b))
	br.SetParallelism(par)
	br.SetPlanCacheCap(4)
	gs := make([]graph.Graph, b)
	for round := 0; round < rounds; round++ {
		switch round % 3 {
		case 0: // shared-graph round
			br.Step(pool[round%len(pool)])
		case 1: // clustered round, 4 runs per graph
			for i := range gs {
				gs[i] = pool[(i/4+round)%len(pool)]
			}
			br.StepEach(gs)
		default: // singleton round: every run a first-sight graph
			for i := range gs {
				gs[i] = pool[(round*b+i)%len(pool)]
			}
			br.StepEach(gs)
		}
	}
	br.FlushMetrics()
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
		pool[k] = deafVariant(t, n, k)
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

// TestParallelKernelMetricsParity runs under -race in CI (the
// TestParallel glob): the kernel's flushed metric series must agree
// bitwise between sequential and 4-worker stepping, and histogram
// observation counts must match even though the observed latencies
// differ.
func TestParallelKernelMetricsParity(t *testing.T) {
	defer core.SetObsRegistry(obs.Default())
	read := func(par int) (vals map[string]uint64, histCount uint64, shards uint64) {
		r := obs.NewRegistry()
		core.SetObsRegistry(r)
		mixedWorkload(t, par)
		vals = make(map[string]uint64, len(kernelSeries))
		for _, name := range kernelSeries {
			vals[name] = r.CounterValue(name)
		}
		h := r.Histogram("repro_kernel_stepeach_round_seconds", "", obs.DurationBuckets())
		return vals, h.Count(), r.CounterValue("repro_kernel_step_shards_total")
	}
	seq, seqHist, _ := read(1)
	par, parHist, parShards := read(4)
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
	if parShards == 0 {
		t.Error("4-worker run recorded no worker-pool shards")
	}
}

// TestKernelNoopRegistryRecordsNothing binds the kernel to a live
// registry, detaches it (the REPRO_OBS=off state), steps more rounds,
// and verifies the detached period left no trace.
func TestKernelNoopRegistryRecordsNothing(t *testing.T) {
	defer core.SetObsRegistry(obs.Default())
	r := obs.NewRegistry()
	core.SetObsRegistry(r)
	mixedWorkload(t, 1)
	before := make(map[string]uint64, len(kernelSeries))
	for _, name := range kernelSeries {
		before[name] = r.CounterValue(name)
	}
	if before["repro_kernel_stepeach_rounds_total"] == 0 {
		t.Fatal("instrumented workload recorded nothing")
	}
	core.SetObsRegistry(nil)
	mixedWorkload(t, 4)
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
		pool[k] = deafVariant(t, n, k)
	}
	gs := make([]graph.Graph, b)
	d, _ := core.AsDense(algorithms.Midpoint{})
	br := core.NewBatchRunner(d, testInputs(n, b))
	br.SetParallelism(4)
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
