package consensus

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// batchSweepSpecs returns a spec mix exercising every sweep path: one
// large tile with shared graphs (same model/adversary/seed, varying
// inputs), a tile with per-run graph sequences (varying seeds under the
// random scheduler), a second algorithm tile, signed-zero inputs, a
// non-batchable adaptive adversary, a model-free spec, and a broken
// spec.
func batchSweepSpecs() []RunSpec {
	var specs []RunSpec
	for i := 0; i < 6; i++ {
		in := SpreadInputs(8)
		in[3] = float64(i) / 7
		specs = append(specs, RunSpec{Model: "deaf:8", Algorithm: "midpoint", Adversary: "cycle", Rounds: 40, Inputs: in})
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, RunSpec{Model: "deaf:8", Algorithm: "amortized", Adversary: "random", Rounds: 25, Seed: int64(i + 1)})
	}
	specs = append(specs, signedZeroSpecs("deaf:6", 20)...)
	specs = append(specs,
		RunSpec{Model: "psi:5", Algorithm: "mean", Adversary: "cycle", Rounds: 12},
		RunSpec{Model: "twoagent", Algorithm: "twothirds", Adversary: "greedy", Rounds: 3, Depth: 2},
		RunSpec{Algorithm: "midpoint", Adversary: "randomrooted:0.4", Inputs: []float64{0, 1, 0.25, 0.75}, Rounds: 15},
		RunSpec{Model: "deaf:8", Algorithm: "nonsense", Rounds: 5},
	)
	return specs
}

// signedZeroSpecs returns specs on a 6-agent model whose inputs mix -0
// and +0 and whose input hull has minimum exactly 0 — the values where a
// comparison-based min/max can pick the wrong zero. Min/max and
// averaging algorithms share each input pattern, and one pattern is all
// zeros, so its diameter is 0 from the start.
func signedZeroSpecs(model string, rounds int) []RunSpec {
	negZero := math.Copysign(0, -1)
	patterns := [][]float64{
		{negZero, 0, 1, 0.5, negZero, 0.25},
		{0, negZero, 0.75, negZero, 1, 0},
		{negZero, negZero, negZero, 0, 0, 0},
		{0, 0.125, negZero, 1, 0.5, negZero},
	}
	var specs []RunSpec
	for _, alg := range []string{"midpoint", "amortized", "mean"} {
		for _, in := range patterns {
			specs = append(specs, RunSpec{Model: model, Algorithm: alg, Adversary: "cycle", Rounds: rounds, Inputs: in})
		}
	}
	return specs
}

// summaryDiff describes the first difference between two summaries,
// comparing every float by its bits — -0 and +0 differ — and returns ""
// when they are identical.
func summaryDiff(a, b *RunSummary) string {
	if a == nil || b == nil {
		if a != b {
			return fmt.Sprintf("summary %v vs %v", a, b)
		}
		return ""
	}
	if a.Algorithm != b.Algorithm || a.Rounds != b.Rounds || a.Validity != b.Validity ||
		len(a.FinalOutputs) != len(b.FinalOutputs) {
		return fmt.Sprintf("%+v vs %+v", *a, *b)
	}
	x := append([]float64{a.InitialDiameter, a.FinalDiameter, a.GeometricRate, a.WorstRoundRatio}, a.FinalOutputs...)
	y := append([]float64{b.InitialDiameter, b.FinalDiameter, b.GeometricRate, b.WorstRoundRatio}, b.FinalOutputs...)
	names := []string{"initial diameter", "final diameter", "geometric rate", "worst round ratio"}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			name := fmt.Sprintf("final output %d", i-len(names))
			if i < len(names) {
				name = names[i]
			}
			return fmt.Sprintf("%s %v (bits %x) vs %v (bits %x)",
				name, x[i], math.Float64bits(x[i]), y[i], math.Float64bits(y[i]))
		}
	}
	return ""
}

// resultDiff is summaryDiff for whole sweep results: the identifying
// fields must agree exactly too.
func resultDiff(a, b SweepResult) string {
	if a.Index != b.Index || a.Fingerprint != b.Fingerprint || a.Cached != b.Cached || a.Err != b.Err {
		return fmt.Sprintf("result %+v vs %+v", a, b)
	}
	return summaryDiff(a.Summary, b.Summary)
}

// sessionSummary is the untouched reference every sweep path must
// match: Summarize over a full Session.Run trace. ok is false when the
// spec does not resolve.
func sessionSummary(t *testing.T, spec RunSpec, opts ...Option) (*RunSummary, bool) {
	t.Helper()
	s, err := NewSession(spec, opts...)
	if err != nil {
		return nil, false
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res)
	return &sum, true
}

// TestSweepBatchMatchesSingle is the batch plane's acceptance
// differential at the sweep layer: the tiled execution (at the default
// worker count, and with one worker so every group fills whole tiles)
// must produce results bit-identical to SweepBatchSize(1), where every
// spec runs alone, across shared-graph tiles, per-run-graph tiles,
// signed-zero inputs, adaptive fallbacks, and failures. The same specs
// resolved against an AgentsOnly library, where every spec falls back to
// the per-session Agent path, must give the same results too, and every
// summary must equal Summarize over a full Session.Run trace.
func TestSweepBatchMatchesSingle(t *testing.T) {
	specs := batchSweepSpecs()
	ctx := context.Background()
	single, err := Sweep(ctx, specs, WithSweepCache(NewSweepCache()), SweepBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Sweep(ctx, specs, WithSweepCache(NewSweepCache()))
	if err != nil {
		t.Fatal(err)
	}
	wholeTiles, err := Sweep(ctx, specs, WithSweepCache(NewSweepCache()), SweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	agents, err := Sweep(ctx, specs, WithSweepCache(NewSweepCache()), SweepLibrary(agentsOnlyLibrary(t)))
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range [][]SweepResult{batched, wholeTiles, agents} {
		if len(other) != len(single) {
			t.Fatalf("result count differs: %d vs %d", len(other), len(single))
		}
	}
	for i := range single {
		if d := resultDiff(single[i], batched[i]); d != "" {
			t.Errorf("spec %d: batched result differs: %s", i, d)
		}
		if d := resultDiff(single[i], wholeTiles[i]); d != "" {
			t.Errorf("spec %d: one-worker batched result differs: %s", i, d)
		}
		if d := resultDiff(single[i], agents[i]); d != "" {
			t.Errorf("spec %d: agent-path result differs: %s", i, d)
		}
		if want, ok := sessionSummary(t, specs[i]); ok {
			if d := summaryDiff(want, single[i].Summary); d != "" {
				t.Errorf("spec %d: sweep summary differs from Summarize(Session.Run): %s", i, d)
			}
		}
	}
}

// TestSweepBatchSharesCacheKeys proves the batched path writes and reads
// the same cache fingerprints as the single path: a cache populated
// entirely by SweepBatchSize(1) must answer a batched sweep of the same
// specs purely from cache, and vice versa.
func TestSweepBatchSharesCacheKeys(t *testing.T) {
	specs := batchSweepSpecs()
	// Drop the broken spec (never cached).
	var ok []RunSpec
	for _, s := range specs {
		if s.Algorithm != "nonsense" {
			ok = append(ok, s)
		}
	}
	ctx := context.Background()

	cache := NewSweepCache()
	if _, err := Sweep(ctx, ok, WithSweepCache(cache), SweepBatchSize(1)); err != nil {
		t.Fatal(err)
	}
	batched, err := Sweep(ctx, ok, WithSweepCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batched {
		if r.Err != "" {
			t.Fatalf("spec %d failed: %s", i, r.Err)
		}
		if !r.Cached {
			t.Errorf("spec %d: batched sweep did not hit the single-path cache entry", i)
		}
	}

	cache2 := NewSweepCache()
	if _, err := Sweep(ctx, ok, WithSweepCache(cache2)); err != nil {
		t.Fatal(err)
	}
	single, err := Sweep(ctx, ok, WithSweepCache(cache2), SweepBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range single {
		if r.Err == "" && !r.Cached {
			t.Errorf("spec %d: single sweep did not hit the batch-path cache entry", i)
		}
	}
}

// TestSweepTileKeyDistinguishesParameterizations is the regression test
// for tiling on display names: selfweighted:0.331 and selfweighted:0.334
// both render as "self-weighted(0.33)" but are different algorithms, so
// they must not share a tile (which would step both with one alpha).
func TestSweepTileKeyDistinguishesParameterizations(t *testing.T) {
	specs := []RunSpec{
		{Model: "deaf:6", Algorithm: "selfweighted:0.331", Adversary: "cycle", Rounds: 30},
		{Model: "deaf:6", Algorithm: "selfweighted:0.334", Adversary: "cycle", Rounds: 30},
	}
	ctx := context.Background()
	single, err := Sweep(ctx, specs, WithSweepCache(NewSweepCache()), SweepBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Sweep(ctx, specs, WithSweepCache(NewSweepCache()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range single {
		if d := resultDiff(single[i], batched[i]); d != "" {
			t.Errorf("spec %d: batched result differs: %s", i, d)
		}
	}
	if summaryDiff(single[0].Summary, single[1].Summary) == "" {
		t.Fatal("test is vacuous: the two alphas produced identical summaries")
	}
}

// TestDecisionSweepBatchParity compares the batch-plane decision sweep
// (one shared trajectory sampled at every decision round) against the
// sequential per-ε path on the Agent path (an AgentsOnly library): every
// point must be deep-equal.
func TestDecisionSweepBatchParity(t *testing.T) {
	req := DecisionRequest{
		Model:       "deaf:5",
		Algorithm:   "midpoint",
		Contraction: 0.5,
		Eps:         []float64{0.5, 0.25, 1e-3, 1e-6, 1e-6, 1},
		Theorem:     "T9",
	}
	ctx := context.Background()
	batched, err := DecisionSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := DecisionSweep(ctx, req, QueryLibrary(agentsOnlyLibrary(t)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batched, sequential) {
		t.Fatalf("decision sweep differs across paths\nbatched:    %+v\nsequential: %+v", batched, sequential)
	}
}

// TestSweepCacheBounded pins the entry cap and oldest-first eviction.
func TestSweepCacheBounded(t *testing.T) {
	cache := NewSweepCacheSize(3)
	for i := 0; i < 10; i++ {
		cache.put(fmt.Sprintf("key-%d", i), RunSummary{Rounds: i})
	}
	if _, _, entries := cache.Stats(); entries != 3 {
		t.Fatalf("cache holds %d entries, cap is 3", entries)
	}
	// The three newest survive.
	for i := 7; i < 10; i++ {
		if s, hit := cache.get(fmt.Sprintf("key-%d", i)); !hit || s.Rounds != i {
			t.Fatalf("newest entry key-%d missing after eviction", i)
		}
	}
	if _, hit := cache.get("key-0"); hit {
		t.Fatal("oldest entry survived eviction")
	}
	if cache.Capacity() != 3 {
		t.Fatalf("Capacity() = %d, want 3", cache.Capacity())
	}
}

// TestSweepCacheCapacityOption hands concurrent sweeps one cache bounded
// at construction and checks the bound holds and Stats accounting stays
// consistent while they share it (run with -race).
func TestSweepCacheCapacityOption(t *testing.T) {
	cache := NewSweepCacheSize(4)
	specs := make([]RunSpec, 6)
	for i := range specs {
		specs[i] = RunSpec{Model: "deaf:6", Algorithm: "midpoint", Adversary: "random", Rounds: 10, Seed: int64(i + 1)}
	}
	const workers = 6
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				results, err := Sweep(context.Background(), specs,
					WithSweepCache(cache), SweepWorkers(2))
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range results {
					if r.Err != "" {
						t.Errorf("spec %d: %s", r.Index, r.Err)
						return
					}
					if r.Summary == nil {
						t.Errorf("spec %d: no summary", r.Index)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	hits, misses, entries := cache.Stats()
	if entries > 4 {
		t.Fatalf("bounded cache grew to %d entries, cap is 4", entries)
	}
	// Every one of the 6*3*6 spec executions issued exactly one counted
	// lookup in its prepare phase (late re-checks count hits only), so
	// the prepare accounting must cover all of them, with at least one
	// miss per distinct spec and at least one hit overall.
	if total := hits + misses; total < workers*3*6 {
		t.Fatalf("hits+misses = %d, want >= %d", total, workers*3*6)
	}
	if misses < 6 {
		t.Fatalf("misses = %d, want >= 6 (one per distinct spec)", misses)
	}
	if hits == 0 {
		t.Fatal("no cache hits across repeated concurrent sweeps")
	}
}
