package approx_test

import (
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
)

// clusterGraph returns the n-node graph where agent j listens to itself
// and agent (j+k) mod n.
func clusterGraph(t *testing.T, n, k int) graph.Graph {
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

// TestDecidingBatchClusteredParity decides a batch of midpoint runs
// stepped through an adversarial clustered workload — per-run graph
// sequences that blend shared and distinct graphs under a plan cache too
// small to hold them — and checks that, at every run's decision round,
// Decide on the batch outputs gives bit for bit the decisions, spread and
// verdicts that Decider.Run gives on that run alone, on the dense path
// and on the Agent path.
func TestDecidingBatchClusteredParity(t *testing.T) {
	const n, B, rounds = 5, 6, 14
	alg := algorithms.Midpoint{}
	deciders := []approx.Decider{
		{Alg: alg, Contraction: 0.5},
		{Alg: core.AgentsOnly(alg), Contraction: 0.5},
	}

	inputs := make([][]float64, B)
	for i := range inputs {
		in := make([]float64, n)
		for j := range in {
			in[j] = float64((i*29+j*13)%17) / 17
		}
		inputs[i] = in
	}
	// Round r graph for run i: runs with even i share one graph per
	// round, odd runs play their own — each round mixes one multi-run
	// cluster with singleton clusters, and the graph stream never
	// repeats, so the tiny cap below keeps evicting and recycling.
	graphAt := func(i, round int) graph.Graph {
		if i%2 == 0 {
			return clusterGraph(t, n, round%n)
		}
		return clusterGraph(t, n, (round+i)%n)
	}
	schedules := make([]core.Sequence, B)
	for i := range schedules {
		for round := 1; round <= rounds; round++ {
			schedules[i].Graphs = append(schedules[i].Graphs, graphAt(i, round))
		}
	}
	// Run i decides at round 2+i: ε = 2^-(2+i) with Δ = 1.
	eps := make([]float64, B)
	for i := range eps {
		eps[i] = math.Ldexp(1, -(2 + i))
	}

	br := core.NewBatchRunner(alg, inputs)
	br.SetPlanCacheCap(2)
	gs := make([]graph.Graph, B)
	out := make([]float64, n)
	decided := 0
	for round := 1; round <= rounds; round++ {
		for i := range gs {
			gs[i] = schedules[i].Graphs[round-1]
		}
		br.StepEach(gs)
		for i := 0; i < B; i++ {
			if deciders[0].Rounds(1, eps[i]) != round {
				continue
			}
			decided++
			br.Outputs(i, out)
			got := approx.Decide(inputs[i], out, round, eps[i])
			if !got.Validity {
				t.Fatalf("run %d: decided %v outside the initial hull", i, got.Decisions)
			}
			for k, d := range deciders {
				want := d.Run(inputs[i], schedules[i], 1, eps[i])
				if got.DecisionRound != want.DecisionRound || got.EpsAgreement != want.EpsAgreement ||
					got.Validity != want.Validity || math.Float64bits(got.Spread) != math.Float64bits(want.Spread) {
					t.Fatalf("run %d (%s path): batch decision %+v, single-run decider %+v", i, [...]string{"dense", "agents"}[k], got, want)
				}
				for j := range want.Decisions {
					if math.Float64bits(got.Decisions[j]) != math.Float64bits(want.Decisions[j]) {
						t.Fatalf("run %d agent %d (%s path): batch decided %v, single-run decider %v", i, j, [...]string{"dense", "agents"}[k], got.Decisions[j], want.Decisions[j])
					}
				}
			}
		}
	}
	if decided != B {
		t.Fatalf("%d of %d runs reached their decision round", decided, B)
	}

	if _, misses, evicts, defers, entries := br.PlanCacheStats(); evicts == 0 || entries > 2 || misses+defers < uint64(rounds) {
		t.Fatalf("workload was meant to thrash the 2-plan cache (misses=%d evicts=%d defers=%d entries=%d)", misses, evicts, defers, entries)
	}
}
