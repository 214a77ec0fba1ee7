package consensus

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/approx"
	"repro/internal/valency"
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

// TestDecisionSweepBatchParity compares the decision sweep on the dense
// path (the default library) with the same sweep on the Agent path (an
// AgentsOnly library): every point must be deep-equal.
func TestDecisionSweepBatchParity(t *testing.T) {
	req := DecisionRequest{
		Model:       "deaf:5",
		Algorithm:   "midpoint",
		Contraction: 0.5,
		Eps:         []float64{0.5, 0.25, 1e-3, 1e-6, 1e-6, 1},
		Theorem:     "T9",
	}
	ctx := context.Background()
	dense, err := DecisionSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	agents, err := DecisionSweep(ctx, req, QueryLibrary(agentsOnlyLibrary(t)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dense, agents) {
		t.Fatalf("decision sweep differs across paths\ndense:  %+v\nagents: %+v", dense, agents)
	}
}

// TestDecisionSweepMatchesPerEpsRuns pins the one-execution decision
// sweep against the definition, one fresh approx.Decider.Run per
// tolerance on a fresh source (and, for the valency adversaries, a fresh
// engine), bitwise, on oblivious and adaptive sources. A cancelled sweep
// returns no points.
func TestDecisionSweepMatchesPerEpsRuns(t *testing.T) {
	eps := []float64{0.5, 0.1, 0.01, 0.1, 1e-3, 1}
	for _, req := range []DecisionRequest{
		{Model: "deaf:5", Algorithm: "midpoint", Adversary: "fixed:0", Contraction: 0.5},
		{Model: "deaf:4", Algorithm: "mean", Adversary: "random", Seed: 7, Contraction: 0.75},
		{Model: "twoagent", Algorithm: "twothirds", Adversary: "greedy", Contraction: 1.0 / 3},
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "greedy", Contraction: 0.5},
		{Model: "psi:5", Algorithm: "midpoint", Adversary: "blockgreedy", Contraction: 0.5},
	} {
		req.Eps = eps
		name := req.Model + "/" + req.Algorithm + "/" + req.Adversary
		got, err := DecisionSweep(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := Models.New(req.Model)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := Algorithms.New(req.Algorithm, m.N())
		if err != nil {
			t.Fatal(err)
		}
		seed := req.Seed
		if seed == 0 {
			seed = DefaultSeed
		}
		d := approx.Decider{Alg: alg, Contraction: req.Contraction}
		want := make([]DecisionPoint, len(eps))
		for i, e := range eps {
			src, err := Adversaries.New(req.Adversary, AdversaryEnv{
				Model: m, Algorithm: alg, N: m.N(), Seed: seed, Depth: DefaultDepth,
				Engine: valency.NewEngine(m, valency.DefaultParams(DefaultDepth, alg.Convex())),
			})
			if err != nil {
				t.Fatal(err)
			}
			res := d.Run(SpreadInputs(m.N()), src, 1, e)
			want[i] = DecisionPoint{Eps: e, Rounds: res.DecisionRound, Spread: res.Spread, OK: res.EpsAgreement && res.Validity}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decision sweep differs from per-eps runs\nsweep:   %+v\nper-eps: %+v", name, got, want)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if points, err := DecisionSweep(ctx, req); err != context.Canceled || points != nil {
			t.Fatalf("%s: cancelled sweep returned %v, %v; want no points and context.Canceled", name, points, err)
		}
	}
}

// TestDecisionSweepMonotone checks the two-thirds decider on the
// two-agent model under H1 against Theorem 8: every point decides within
// its tolerance, decision rounds do not decrease as ε falls, and none
// beats the lower bound.
func TestDecisionSweepMonotone(t *testing.T) {
	eps := []float64{0.5, 0.1, 0.01, 1e-3, 1e-4}
	pts, err := DecisionSweep(context.Background(), DecisionRequest{
		Model: "twoagent", Algorithm: "twothirds", Adversary: "fixed:1",
		Contraction: 1.0 / 3, Eps: eps, Theorem: "T8",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(eps) {
		t.Fatalf("sweep returned %d points, want %d", len(pts), len(eps))
	}
	for i, p := range pts {
		if !p.OK {
			t.Errorf("eps=%v: run failed", p.Eps)
		}
		if i > 0 && p.Rounds < pts[i-1].Rounds {
			t.Errorf("rounds not monotone in 1/eps: %v", pts)
		}
		if float64(p.Rounds) < p.LowerBound-1e-9 {
			t.Errorf("eps=%v: rounds %d below lower bound %v", p.Eps, p.Rounds, p.LowerBound)
		}
	}
}

// TestSweepCacheBounded pins the entry cap and oldest-first eviction.
func TestSweepCacheBounded(t *testing.T) {
	cache := NewSweepCacheSize(3)
	for i := 0; i < 10; i++ {
		cache.Insert(fmt.Sprintf("key-%d", i), RunSummary{Rounds: i})
	}
	if entries := cache.Counters().Entries; entries != 3 {
		t.Fatalf("cache holds %d entries, cap is 3", entries)
	}
	// The three newest survive.
	for i := 7; i < 10; i++ {
		if s, hit := cache.Lookup(fmt.Sprintf("key-%d", i)); !hit || s.Rounds != i {
			t.Fatalf("newest entry key-%d missing after eviction", i)
		}
	}
	if _, hit := cache.Lookup("key-0"); hit {
		t.Fatal("oldest entry survived eviction")
	}
	if c := cache.Counters().Capacity; c != 3 {
		t.Fatalf("Counters().Capacity = %d, want 3", c)
	}
}

// TestSweepCacheMatchesFIFOModel drives caches of capacity 1, 3 and 64
// through 10,000 random inserts and lookups each, drawn from a
// zero-seeded source and biased toward recently drawn keys, and holds
// the cache after every step to a reference FIFO model: a lookup hits
// or misses as the model does and a hit returns the latest value,
// Entries and Evictions equal the model's, Hits+Misses counts the
// lookups, and re-inserting a resident key evicts nothing.
func TestSweepCacheMatchesFIFOModel(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	for _, capacity := range []int{1, 3, 64} {
		cache := NewSweepCacheSize(capacity)
		model := make(map[string]int) // resident key -> latest value
		var fifo []string             // resident keys, oldest first
		var evictions, lookups uint64
		drawn := 0 // keys drawn so far: key-0 ... key-(drawn-1)
		for step := 0; step < 10000; step++ {
			k := drawn
			if drawn > 0 && rng.Intn(8) != 0 {
				k = max(0, drawn-1-rng.Intn(1+rng.Intn(64)))
			} else {
				drawn++
			}
			key := fmt.Sprintf("key-%d", k)
			_, resident := model[key]
			if rng.Intn(2) == 0 {
				before := cache.Counters().Evictions
				cache.Insert(key, RunSummary{Rounds: step})
				if resident {
					if after := cache.Counters().Evictions; after != before {
						t.Fatalf("cap %d step %d: re-inserting resident %s evicted %d entries", capacity, step, key, after-before)
					}
				} else {
					if len(fifo) == capacity {
						delete(model, fifo[0])
						fifo = fifo[1:]
						evictions++
					}
					fifo = append(fifo, key)
				}
				model[key] = step
			} else {
				lookups++
				got, hit := cache.Lookup(key)
				if hit != resident || (hit && got.Rounds != model[key]) {
					t.Fatalf("cap %d step %d: Lookup(%s) = (%d, %v), model holds (%d, %v)",
						capacity, step, key, got.Rounds, hit, model[key], resident)
				}
			}
			if c := cache.Counters(); c.Entries != len(model) || c.Evictions != evictions ||
				c.Hits+c.Misses != lookups || c.Capacity != capacity {
				t.Fatalf("cap %d step %d: counters %+v, model has %d entries, %d evictions, %d lookups",
					capacity, step, c, len(model), evictions, lookups)
			}
		}
		if evictions == 0 {
			t.Errorf("cap %d: the run never evicted", capacity)
		}
	}
}

// TestSweepCacheCapacityOption hands concurrent sweeps one cache bounded
// at construction and checks the bound holds and its accounting stays
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
	c := cache.Counters()
	hits, misses, entries := c.Hits, c.Misses, c.Entries
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
