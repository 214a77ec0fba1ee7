package core_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
)

// shiftGraph returns the n-node graph in which agent j listens to itself
// and to agent (j+k) mod n — n distinct graphs as k varies, cheap to
// enumerate in bulk for cache-thrash tests.
func shiftGraph(n, k int) graph.Graph {
	b := graph.NewBuilder(n)
	for j := 0; j < n; j++ {
		b.Edge((j+k)%n, j)
	}
	return b.Graph()
}

// deafVariant returns the n-node graph where everyone hears everyone
// except agent k mod n, who hears only itself and its successor —
// churn-style graphs with few segments and heavy fold sharing.
func deafVariant(n, k int) graph.Graph {
	k %= n
	b := graph.NewBuilder(n)
	for j := 0; j < n; j++ {
		if j == k {
			b.Edge((k+1)%n, j)
			continue
		}
		for i := 0; i < n; i++ {
			b.Edge(i, j)
		}
	}
	return b.Graph()
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
// memo, a one-shot run's first-sight single-run graph is deferred (no
// plan built) and admitted on second sight, a replaying run's
// first-sight graph gets a private plan (a miss that never enters the
// cache), a shared-graph round counts one hit per run, and evicted plans
// keep serving the memos that still hold them.
func TestPlanCacheAccounting(t *testing.T) {
	const n, B = 5, 4
	br := core.NewBatchRunner(algorithms.Midpoint{}, testInputs(n, B))
	wantStats(t, br, 0, 0, 0, 0, 0)

	shared := shiftGraph(n, 1)
	gs := []graph.Graph{shared, shared, shared, shared}

	// All runs play one graph: the first-sight cluster is multi-run, so
	// it is admitted immediately. Hits 3: runs 1-3 join run 0's entry;
	// misses 1: run 0 builds the plan; entries 1.
	br.StepEach(gs)
	wantStats(t, br, 3, 1, 0, 0, 1)

	// Per-run distinct first-sight graphs on runs that have replayed
	// nothing yet: four singleton clusters, all deferred. Defers 4: each
	// run steps per run; misses and entries stay: no plan is built.
	each := []graph.Graph{shiftGraph(n, 0), shiftGraph(n, 2), shiftGraph(n, 3), shiftGraph(n, 4)}
	br.StepEach(each)
	wantStats(t, br, 3, 1, 0, 4, 1)

	// Second sight: the doorkeeper admits each graph. Misses 5: four
	// plans built; entries 5: all four cached.
	br.StepEach(each)
	wantStats(t, br, 3, 5, 0, 4, 5)

	// Third sight replays the same graph values. Hits 7: one memo hit per
	// run — and from now on every run counts as replaying.
	br.StepEach(each)
	wantStats(t, br, 7, 5, 0, 4, 5)

	// Fresh distinct graphs on replaying runs: four singleton clusters,
	// each built private. Misses 9: four plans built; defers stay 4 and
	// entries stay 5: private plans are not cached.
	fresh := []graph.Graph{deafVariant(n, 0), deafVariant(n, 1), deafVariant(n, 2), deafVariant(n, 3)}
	br.StepEach(fresh)
	wantStats(t, br, 7, 9, 0, 4, 5)

	// Replaying them steps the private plans through the memos. Hits 11:
	// one per run; nothing is built.
	br.StepEach(fresh)
	wantStats(t, br, 11, 9, 0, 4, 5)

	// A Step round is a StepEach round in which every run plays the same
	// graph value: run 0 looks the plan up by key and runs 1-3 join it
	// through the previous-run check without building a key. Hits 15: one
	// per run. It also moves every run's memo to the shared plan, which
	// lets go of the private ones.
	br.Step(shared)
	wantStats(t, br, 15, 9, 0, 4, 5)

	// Shrinking the cap evicts oldest-first immediately, the shared plan
	// first. Evictions 3, entries 2.
	br.SetPlanCacheCap(2)
	wantStats(t, br, 15, 9, 3, 4, 2)

	// ...but the per-run memos still hold the (now evicted) plan, so
	// replaying the same graph value stays hit-only and rebuilds nothing.
	// Hits 19: one memo hit per run.
	br.Step(shared)
	wantStats(t, br, 19, 9, 3, 4, 2)
}

// TestPrivateFirstSightPlans pins the first-sight policy on its own
// runners: a one-shot run (a new graph every round) steps per run and
// builds no plan; a replaying run (each graph held for an epoch of four
// rounds) builds each epoch's plan once, at its first sight, never adds
// it to the cache, and recycles its storage once the run moves on.
func TestPrivateFirstSightPlans(t *testing.T) {
	const n, epochs = 64, 24
	pool := make([]graph.Graph, epochs+9)
	for k := range pool {
		pool[k] = deafVariant(n, k)
	}
	d, _ := core.AsDense(algorithms.Midpoint{})
	inputs := testInputs(n, 1)

	oneShot := core.NewBatchRunner(d, inputs)
	for round, g := range pool[:epochs] {
		oneShot.Step(g)
		wantStats(t, oneShot, 0, 0, 0, uint64(round+1), 0)
	}

	br := core.NewBatchRunner(d, inputs)
	single := core.NewDenseRunner(d, inputs[0])
	step := func(g graph.Graph) {
		br.Step(g)
		single.Step(g)
	}
	// Epoch 0: the run has replayed nothing yet, so its first round is
	// deferred and the doorkeeper admits the graph on second sight; the
	// next two rounds are memo hits, which mark the run as replaying.
	for r := 0; r < 4; r++ {
		step(pool[0])
	}
	wantStats(t, br, 2, 1, 0, 1, 1)
	for e := 1; e < epochs; e++ {
		step(pool[e])
		if private, _, _ := core.PlanPool(br); private != uint64(e) {
			t.Fatalf("epoch %d: %d private plans built, want %d", e, private, e)
		}
		for r := 1; r < 4; r++ {
			step(pool[e])
		}
		wantStats(t, br, uint64(2+3*e), uint64(1+e), 0, 1, 1)
		// The run holds this epoch's plan, the one dead entry; from epoch
		// 2 on, the previous epoch's plan has left the graveyard for the
		// free list, where the next epoch's build will take it.
		if _, free, dead := core.PlanPool(br); dead != 1 || free != min(e-1, 1) {
			t.Fatalf("epoch %d: %d free and %d dead entries, want %d and 1", e, free, dead, min(e-1, 1))
		}
	}
	// Nine more epochs on graphs never seen before: every plan is a
	// private build on recycled storage.
	next := epochs
	allocs := testing.AllocsPerRun(8, func() {
		for r := 0; r < 4; r++ {
			step(pool[next])
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("an epoch allocates %.1f times, want 0", allocs)
	}
	out := make([]float64, n)
	br.Outputs(0, out)
	for j := range out {
		if got, want := out[j], single.Output(j); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("agent %d: batch %v, single %v", j, got, want)
		}
	}
}

// TestPlanCacheThrashParity steps per-run lasso schedules through a
// deliberately tiny plan cache — every round churns builds, evictions,
// and storage recycling, and most rounds step a multi-run cluster beside
// singleton clusters — and checks every run after every round against a
// per-run DenseRunner and an Agent configuration: bit-identical outputs
// and configuration fingerprints, for a stepper without aux planes
// (Midpoint) and one with two (AmortizedMidpoint). At the end each run
// also matches core.Run on both paths. This is the hostile
// many-distinct-graph case the cache bound exists for.
func TestPlanCacheThrashParity(t *testing.T) {
	const n, B, rounds = 5, 6, 24
	inputs := testInputs(n, B)
	srcs := make([]core.PatternSource, B)
	for i := 0; i < B; i++ {
		srcs[i] = core.Schedule{
			Prefix: []graph.Graph{shiftGraph(n, i%n), graph.Cycle(n)},
			Loop:   []graph.Graph{shiftGraph(n, (i+1)%n), graph.Star(n, i%n), shiftGraph(n, (i+2)%n)},
		}
	}
	for _, alg := range []core.DenseAlgorithm{algorithms.Midpoint{}, algorithms.AmortizedMidpoint{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			br := core.NewBatchRunner(alg, inputs)
			br.SetPlanCacheCap(2)
			dense := make([]*core.DenseRunner, B)
			agents := make([]*core.Config, B)
			for i := range dense {
				dense[i] = core.NewDenseRunner(alg, inputs[i])
				agents[i] = core.NewConfig(alg, inputs[i])
			}
			gs := make([]graph.Graph, B)
			out := make([]float64, n)
			var view core.DenseState
			for round := 1; round <= rounds; round++ {
				for i, src := range srcs {
					gs[i] = src.Next(round, nil)
				}
				br.StepEach(gs)
				for i, g := range gs {
					dense[i].Step(g)
					agents[i] = agents[i].Step(g)
					br.Outputs(i, out)
					for j := range out {
						if b, d, a := out[j], dense[i].Output(j), agents[i].Output(j); math.Float64bits(b) != math.Float64bits(d) || math.Float64bits(b) != math.Float64bits(a) {
							t.Fatalf("round %d run %d agent %d: batch %v, dense %v, agents %v", round, i, j, b, d, a)
						}
					}
					br.State().View(i, &view)
					bfp, bok := core.AppendDenseFingerprint(alg, &view, nil)
					dfp, dok := core.AppendDenseFingerprint(alg, dense[i].State(), nil)
					afp, aok := agents[i].AppendFingerprint(nil)
					if !bok || !dok || !aok {
						t.Fatalf("round %d run %d: fingerprint unavailable (batch %v, dense %v, agents %v)", round, i, bok, dok, aok)
					}
					if !bytes.Equal(bfp, dfp) || !bytes.Equal(bfp, afp) {
						t.Fatalf("round %d run %d: fingerprints diverge across backends", round, i)
					}
				}
			}
			_, misses, evicts, _, entries := br.PlanCacheStats()
			if entries > 2 {
				t.Fatalf("cache holds %d entries, cap is 2", entries)
			}
			if evicts == 0 || misses <= 2 {
				t.Fatalf("thrash workload must churn the cache, got misses=%d evicts=%d", misses, evicts)
			}

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
		})
	}
}

// TestPlanCacheStaysWithinCap is the plan cache's bounded-structure
// property: over thousands of StepEach rounds, each run drawing its
// graph with repeats (or replaying its last graph value) from a pool
// four times the cap, the cache holds at most cap plans after every
// round and every plan built for the cache is either still held or
// evicted (misses − private builds − evictions = entries), and every
// run ends bit-identical to a per-run DenseRunner.
func TestPlanCacheStaysWithinCap(t *testing.T) {
	const n, b, rounds = 128, 6, 2000
	var all []graph.Graph
	for k := 0; k < n; k++ {
		all = append(all, shiftGraph(n, k), deafVariant(n, k))
	}
	d, _ := core.AsDense(algorithms.Midpoint{})
	for _, capacity := range []int{1, 3, 64} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0))
			pool := all[:4*capacity]
			inputs := testInputs(n, b)
			br := core.NewBatchRunner(d, inputs)
			br.SetPlanCacheCap(capacity)
			singles := make([]*core.DenseRunner, b)
			gs := make([]graph.Graph, b)
			for i := range singles {
				singles[i] = core.NewDenseRunner(d, inputs[i])
				gs[i] = pool[rng.Intn(len(pool))]
			}
			for round := 0; round < rounds; round++ {
				for i := range gs {
					if rng.Intn(4) != 0 {
						gs[i] = pool[rng.Intn(len(pool))]
					}
				}
				br.StepEach(gs)
				for i, s := range singles {
					s.Step(gs[i])
				}
				_, misses, evicts, _, entries := br.PlanCacheStats()
				private, _, _ := core.PlanPool(br)
				if entries > capacity || misses-private-evicts != uint64(entries) {
					t.Fatalf("round %d: %d entries (cap %d), %d misses − %d private − %d evictions", round, entries, capacity, misses, private, evicts)
				}
			}
			if _, _, evicts, _, _ := br.PlanCacheStats(); evicts == 0 {
				t.Fatal("the workload never evicted a plan")
			}
			out := make([]float64, n)
			for i, s := range singles {
				br.Outputs(i, out)
				for j, y := range s.State().Y {
					if math.Float64bits(out[j]) != math.Float64bits(y) {
						t.Fatalf("run %d agent %d: batch %v, single %v", i, j, out[j], y)
					}
				}
			}
		})
	}
}
