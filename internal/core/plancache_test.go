package core_test

import (
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
)

// shiftGraph returns the n-node graph in which agent j listens to itself
// and to agent (j+k) mod n — n distinct graphs as k varies, cheap to
// enumerate in bulk for cache-thrash tests.
func shiftGraph(t *testing.T, n, k int) graph.Graph {
	t.Helper()
	masks := make([]uint64, n)
	for j := 0; j < n; j++ {
		masks[j] = 1<<uint(j) | 1<<uint((j+k)%n)
	}
	g, err := graph.FromInWords(n, masks)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testInputs(n, b int) [][]float64 {
	inputs := make([][]float64, b)
	for i := range inputs {
		in := make([]float64, n)
		for j := range in {
			in[j] = float64((i*31+j*17)%13) / 13
		}
		inputs[i] = in
	}
	return inputs
}

func wantStats(t *testing.T, r *core.BatchRunner, hits, misses, evicts, defers uint64, entries int) {
	t.Helper()
	h, m, e, d, n := r.PlanCacheStats()
	if h != hits || m != misses || e != evicts || d != defers || n != entries {
		t.Fatalf("plan cache stats (hits, misses, evicts, defers, entries) = (%d, %d, %d, %d, %d), want (%d, %d, %d, %d, %d)",
			h, m, e, d, n, hits, misses, evicts, defers, entries)
	}
}

// TestPlanCacheAccounting pins the exact hit/miss/eviction/deferral
// accounting of the clustered stepping paths: runs joining an existing
// plan count as hits, replayed graph values hit the per-run identity
// memo, a first-sight single-run graph is deferred (no plan built) and
// admitted on second sight, a shared-graph round counts one hit per
// run, and evicted plans keep serving the memos that still hold them.
func TestPlanCacheAccounting(t *testing.T) {
	const n, B = 5, 4
	br := core.NewBatchRunner(algorithms.Midpoint{}, testInputs(n, B))
	wantStats(t, br, 0, 0, 0, 0, 0)

	shared := shiftGraph(t, n, 1)
	gs := []graph.Graph{shared, shared, shared, shared}

	// All runs play one graph: the first-sight cluster is multi-run, so
	// it is admitted immediately — run 0 builds the plan, the rest hit it.
	br.StepEach(gs)
	wantStats(t, br, 3, 1, 0, 0, 1)

	// Replaying the same graph values hits the per-run memo for every run.
	br.StepEach(gs)
	wantStats(t, br, 7, 1, 0, 0, 1)

	// Per-run distinct first-sight graphs: four singleton clusters, all
	// deferred — stepped per-run, no plans built or cached.
	each := []graph.Graph{shiftGraph(t, n, 0), shiftGraph(t, n, 2), shiftGraph(t, n, 3), shiftGraph(t, n, 4)}
	br.StepEach(each)
	wantStats(t, br, 7, 1, 0, 4, 1)

	// Second sight: the doorkeeper admits each graph, four plans built.
	br.StepEach(each)
	wantStats(t, br, 7, 5, 0, 4, 5)

	// Third sight replays the same graph values: memo hits for every run.
	br.StepEach(each)
	wantStats(t, br, 11, 5, 0, 4, 5)

	// A Step round is a StepEach round in which every run plays the same
	// graph value: run 0 looks the plan up by key and runs 1-3 join it
	// through the previous-run check without building a key, so the
	// round counts one hit per run. It also moves every run's memo to
	// the shared plan.
	br.Step(shared)
	wantStats(t, br, 15, 5, 0, 4, 5)

	// Shrinking the cap evicts oldest-first immediately, the shared plan
	// first...
	br.SetPlanCacheCap(2)
	wantStats(t, br, 15, 5, 3, 4, 2)

	// ...but the per-run memos still hold the (now evicted) plan, so
	// replaying the same graph value stays hit-only and rebuilds nothing.
	br.Step(shared)
	wantStats(t, br, 19, 5, 3, 4, 2)
}

// TestPlanCacheThrashParity steps per-run lasso schedules through a
// deliberately tiny plan cache — every round churns builds, evictions,
// and storage recycling — and checks the outputs stay bit-identical to
// single runs on both paths. This is the hostile many-distinct-graph case
// the cache bound exists for.
func TestPlanCacheThrashParity(t *testing.T) {
	const n, B, rounds = 5, 6, 24
	alg := algorithms.Midpoint{}
	inputs := testInputs(n, B)
	srcs := make([]core.PatternSource, B)
	for i := 0; i < B; i++ {
		srcs[i] = core.Schedule{
			Prefix: []graph.Graph{shiftGraph(t, n, i%n), graph.Cycle(n)},
			Loop:   []graph.Graph{shiftGraph(t, n, (i+1)%n), graph.Star(n, i%n), shiftGraph(t, n, (i+2)%n)},
		}
	}

	br := core.NewBatchRunner(alg, inputs)
	br.SetPlanCacheCap(2)
	gs := make([]graph.Graph, B)
	for round := 1; round <= rounds; round++ {
		for i, src := range srcs {
			gs[i] = src.Next(round, nil)
		}
		br.StepEach(gs)
	}
	_, misses, evicts, _, entries := br.PlanCacheStats()
	if entries > 2 {
		t.Fatalf("cache holds %d entries, cap is 2", entries)
	}
	if evicts == 0 || misses <= 2 {
		t.Fatalf("thrash workload must churn the cache, got misses=%d evicts=%d", misses, evicts)
	}

	out := make([]float64, n)
	for i := 0; i < B; i++ {
		br.Outputs(i, out)
		for k, single := range []core.Algorithm{core.AgentsOnly(alg), alg} {
			tr := core.Run(single, inputs[i], srcs[i], rounds)
			got := tr.Outputs[rounds]
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(out[j]) {
					t.Fatalf("run %d agent %d (%s path): single %v != batch %v", i, j, [...]string{"agents", "dense"}[k], got[j], out[j])
				}
			}
		}
	}
}
