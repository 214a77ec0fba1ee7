package core_test

import (
	"math"
	"sync"
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
	g, err := graph.FromInMasks(n, masks)
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
// accounting of the clustered stepping paths: a shared-graph round
// costs one lookup, runs joining an existing plan count as hits,
// replayed graph values hit the per-run identity memo, a first-sight
// single-run graph is deferred (no plan built) and admitted on second
// sight, and evicted plans keep serving the memos that still hold them.
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

	// The shared-graph path looks up once per round, not once per run.
	br.Step(shared)
	wantStats(t, br, 12, 5, 0, 4, 5)

	// Shrinking the cap evicts oldest-first immediately...
	br.SetPlanCacheCap(2)
	wantStats(t, br, 12, 5, 3, 4, 2)

	// ...but the per-run memos still hold their (now evicted) plans, so
	// replaying the same graph values stays hit-only and rebuilds nothing.
	br.StepEach(each)
	wantStats(t, br, 16, 5, 3, 4, 2)
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

// TestPlanCacheCompact drops decided runs mid-schedule and checks the
// survivors' plan memos travel with them: stepping resumes hit-only on
// replayed graph values, and outputs match uncompacted single runs.
func TestPlanCacheCompact(t *testing.T) {
	const n, B = 5, 5
	alg := algorithms.Midpoint{}
	inputs := testInputs(n, B)
	br := core.NewBatchRunner(alg, inputs)

	gs := make([]graph.Graph, B)
	for i := range gs {
		gs[i] = shiftGraph(t, n, i%n)
	}
	// Round 1 defers the first-sight singletons, round 2 admits them, so
	// by round 3 every run's memo holds a built plan.
	br.StepEach(gs)
	br.StepEach(gs)
	br.StepEach(gs)
	hits0, misses0, _, _, _ := br.PlanCacheStats()

	keep := []bool{true, false, true, false, true}
	if w := br.Compact(keep); w != 3 {
		t.Fatalf("Compact kept %d runs, want 3", w)
	}
	// Survivors kept their memos: replaying their graph values at the
	// compacted positions is hit-only.
	br.StepEach([]graph.Graph{gs[0], gs[2], gs[4]})
	hits1, misses1, _, _, _ := br.PlanCacheStats()
	if misses1 != misses0 {
		t.Fatalf("post-compact replay rebuilt plans: misses %d -> %d", misses0, misses1)
	}
	if hits1 != hits0+3 {
		t.Fatalf("post-compact replay got %d hits, want %d", hits1-hits0, 3)
	}

	out := make([]float64, n)
	for w, i := range []int{0, 2, 4} {
		br.Outputs(w, out)
		src := core.Schedule{Prefix: []graph.Graph{gs[i]}}
		tr := core.Run(alg, inputs[i], src, 4)
		got := tr.Outputs[4]
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(out[j]) {
				t.Fatalf("compacted run %d agent %d: single %v != batch %v", i, j, got[j], out[j])
			}
		}
	}
}

// TestPlanCacheForkIsolation forks a runner and steps parent and fork
// concurrently: the fork starts with an empty cache of its own, neither
// runner's stepping shows up in the other's accounting, and the -race
// build asserts the runners share no mutable plan state.
func TestPlanCacheForkIsolation(t *testing.T) {
	const n, B, rounds = 5, 4, 16
	br := core.NewBatchRunner(algorithms.Midpoint{}, testInputs(n, B))
	gs := make([]graph.Graph, B)
	for i := range gs {
		gs[i] = shiftGraph(t, n, i%n)
	}
	// Two rounds: the first defers the first-sight singletons, the second
	// admits them, so the parent's memos hold built plans before forking.
	br.StepEach(gs)
	br.StepEach(gs)
	f := br.Fork()
	if h, m, e, d, entries := f.PlanCacheStats(); h != 0 || m != 0 || e != 0 || d != 0 || entries != 0 {
		t.Fatalf("fork starts with stats (%d, %d, %d, %d, %d), want all zero", h, m, e, d, entries)
	}
	_, parentMisses0, _, _, _ := br.PlanCacheStats()

	var wg sync.WaitGroup
	for _, r := range []*core.BatchRunner{br, f} {
		wg.Add(1)
		go func(r *core.BatchRunner) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				r.StepEach(gs)
			}
		}(r)
	}
	wg.Wait()

	_, parentMisses1, _, _, _ := br.PlanCacheStats()
	if parentMisses1 != parentMisses0 {
		t.Fatalf("parent rebuilt plans while stepping replayed graphs: misses %d -> %d", parentMisses0, parentMisses1)
	}
	// The fork saw each graph fresh: one deferred round, then admission.
	if _, m, _, d, entries := f.PlanCacheStats(); m != uint64(B) || d != uint64(B) || entries != B {
		t.Fatalf("fork stats (misses=%d, defers=%d, entries=%d), want (%d, %d, %d)", m, d, entries, B, B, B)
	}

	// Parent and fork stepped the same rounds from the same state, so
	// their outputs must agree bit for bit.
	a, b := make([]float64, n), make([]float64, n)
	for i := 0; i < B; i++ {
		br.Outputs(i, a)
		f.Outputs(i, b)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("run %d agent %d: parent %v != fork %v", i, j, a[j], b[j])
			}
		}
	}
}
