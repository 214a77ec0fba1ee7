package consensus

import (
	"context"
	"testing"
)

func TestSweepOrderErrorsAndCaching(t *testing.T) {
	cache := NewSweepCache()
	specs := []RunSpec{
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 6},
		{Model: "bogus"},
		{Model: "twoagent", Algorithm: "twothirds", Adversary: "cycle", Rounds: 5},
	}
	results, err := Sweep(context.Background(), specs, WithSweepCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
	}
	if results[0].Err != "" || results[2].Err != "" {
		t.Errorf("good entries failed: %q, %q", results[0].Err, results[2].Err)
	}
	if results[1].Err == "" {
		t.Error("bad entry succeeded")
	}
	if results[0].Cached || results[2].Cached {
		t.Error("first sweep reported cache hits")
	}
	if results[0].Summary.FinalDiameter >= results[0].Summary.InitialDiameter {
		t.Errorf("no contraction: %+v", results[0].Summary)
	}

	// The identical sweep must be served from the cache with identical
	// summaries.
	again, err := Sweep(context.Background(), specs, WithSweepCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if !again[i].Cached {
			t.Errorf("entry %d not cached on second sweep", i)
		}
		a, b := again[i].Summary, results[i].Summary
		if a.FinalDiameter != b.FinalDiameter || a.GeometricRate != b.GeometricRate ||
			a.Algorithm != b.Algorithm || a.Rounds != b.Rounds {
			t.Errorf("cached summary diverged: %+v vs %+v", a, b)
		}
	}
	hits, misses, entries := cache.Stats()
	if hits < 2 || entries < 2 {
		t.Errorf("cache stats hits=%d misses=%d entries=%d", hits, misses, entries)
	}
}

func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := make([]RunSpec, 16)
	for i := range specs {
		specs[i] = RunSpec{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 4, Seed: int64(i + 1)}
	}
	results, err := Sweep(ctx, specs)
	if err != context.Canceled {
		t.Fatalf("Sweep under cancelled context: %v, want context.Canceled", err)
	}
	for _, r := range results {
		if r.Err == "" && r.Summary == nil {
			t.Error("cancelled sweep entry has neither result nor error")
		}
	}
}

func TestSweepSeedsDiffer(t *testing.T) {
	// Different seeds must be distinct cache keys.
	cache := NewSweepCache()
	specs := []RunSpec{
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "random", Rounds: 5, Seed: 1},
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "random", Rounds: 5, Seed: 2},
	}
	results, err := Sweep(context.Background(), specs, WithSweepCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Cached || results[1].Cached {
		t.Error("distinct seeds served from one cache entry")
	}
	if _, _, entries := cache.Stats(); entries != 2 {
		t.Errorf("cache entries = %d, want 2", entries)
	}
}

// oversizedModels are model specs whose construction used to panic (node
// counts past graph.MaxNodes) or run without bound (the enumerated
// asynchronous families).
var oversizedModels = []string{"deaf:1025", "psi:1025", "na:63,1", "asyncchain:1000,1"}

// TestSweepRejectsOversizedModels checks that each oversized model fails
// its own spec with an error, while its neighbour in the same sweep is
// still served.
func TestSweepRejectsOversizedModels(t *testing.T) {
	for _, m := range oversizedModels {
		if _, err := NewSession(RunSpec{Model: m}); err == nil {
			t.Errorf("NewSession accepted model %s", m)
		}
		specs := []RunSpec{{Model: m, Rounds: 3}, {Model: "deaf:4", Rounds: 3}}
		results, err := Sweep(context.Background(), specs, WithSweepCache(NewSweepCache()))
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err == "" {
			t.Errorf("sweep accepted model %s", m)
		}
		if results[1].Err != "" || results[1].Summary == nil {
			t.Errorf("neighbour of %s not served: %+v", m, results[1])
		}
	}
}
