package approx_test

import (
	"bytes"
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

// TestDecidingBatchClusteredParity steps a deciding batch through an
// adversarial clustered workload — per-run graph sequences that blend
// shared and distinct graphs under a plan cache too small to hold them —
// and asserts per-round parity against both single-run backends:
// bit-identical outputs and configuration fingerprints every round, for
// every run.
func TestDecidingBatchClusteredParity(t *testing.T) {
	const n, B, rounds, decideAt = 5, 6, 14, 4
	alg := approx.DecidingAlgorithm{Inner: algorithms.Midpoint{}, DecisionRound: decideAt}
	d, ok := core.AsDense(alg)
	if !ok {
		t.Fatal("deciding midpoint is not dense-capable")
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

	br := core.NewBatchRunner(d, inputs)
	br.SetPlanCacheCap(2)

	// References: a dense runner and an agent configuration per run.
	denseRuns := make([]*core.DenseRunner, B)
	agentRuns := make([]*core.Config, B)
	for i := 0; i < B; i++ {
		denseRuns[i] = core.NewDenseRunner(d, inputs[i])
		agentRuns[i] = core.NewConfig(alg, inputs[i])
	}

	var view core.DenseState
	checkRun := func(round, i int) {
		t.Helper()
		out := make([]float64, n)
		br.Outputs(i, out)
		want := denseRuns[i].Outputs()
		for j := range want {
			if math.Float64bits(out[j]) != math.Float64bits(want[j]) {
				t.Fatalf("round %d run %d agent %d: batch %v != dense %v", round, i, j, out[j], want[j])
			}
		}
		br.State().View(i, &view)
		bfp, bok := core.AppendDenseFingerprint(d, &view, nil)
		dfp, dok := core.AppendDenseFingerprint(d, denseRuns[i].State(), nil)
		afp, aok := agentRuns[i].AppendFingerprint(nil)
		if !bok || !dok || !aok {
			t.Fatalf("round %d run %d: fingerprint unavailable (batch %v dense %v agents %v)", round, i, bok, dok, aok)
		}
		if !bytes.Equal(bfp, dfp) || !bytes.Equal(bfp, afp) {
			t.Fatalf("round %d run %d: fingerprints diverge across backends", round, i)
		}
	}

	gs := make([]graph.Graph, B)
	for round := 1; round <= rounds; round++ {
		for i := range gs {
			gs[i] = graphAt(i, round)
		}
		br.StepEach(gs)
		for i := 0; i < B; i++ {
			denseRuns[i].Step(gs[i])
			agentRuns[i] = agentRuns[i].Step(gs[i])
			checkRun(round, i)
		}
	}

	if _, misses, evicts, defers, entries := br.PlanCacheStats(); evicts == 0 || entries > 2 || misses+defers < uint64(rounds) {
		t.Fatalf("workload was meant to thrash the 2-plan cache (misses=%d evicts=%d defers=%d entries=%d)", misses, evicts, defers, entries)
	}
}
