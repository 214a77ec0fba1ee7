package consensus

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
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
	if c := cache.Counters(); c.Hits < 2 || c.Entries < 2 {
		t.Errorf("cache counters %+v", c)
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
	if entries := cache.Counters().Entries; entries != 2 {
		t.Errorf("cache entries = %d, want 2", entries)
	}
}

// TestBareSweepsEachCompute: a Sweep given no cache memoizes within the
// call only, so a second bare sweep of the same spec computes it again.
func TestBareSweepsEachCompute(t *testing.T) {
	specs := []RunSpec{{Model: "deaf:5", Algorithm: "mean", Adversary: "cycle", Rounds: 7}}
	for pass := 0; pass < 2; pass++ {
		results, err := Sweep(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		if r := results[0]; r.Err != "" || r.Summary == nil || r.Cached {
			t.Errorf("bare sweep %d: %+v, want a computed summary", pass, r)
		}
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

// overflowSpecs are a spec whose finite inputs overflow the float range
// — the input hull of ±1.7e308 has an infinite diameter, and its
// midpoints infinite outputs — and a healthy neighbour of the same tile.
func overflowSpecs() []RunSpec {
	return []RunSpec{
		{Model: "deaf:3", Algorithm: "midpoint", Adversary: "cycle", Inputs: []float64{1.7e308, -1.7e308, 0}},
		{Model: "deaf:3", Algorithm: "midpoint", Adversary: "cycle", Inputs: []float64{1, -1, 0}},
	}
}

// TestSweepOverflowIsPerSpecError checks that non-finite inputs are
// rejected and that a run overflowing from finite inputs fails its own
// spec — on the tile, trace-free single and Agent paths — without being
// cached, while its neighbour is served.
func TestSweepOverflowIsPerSpecError(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := NewSession(RunSpec{Model: "deaf:3", Inputs: []float64{0, v, 1}}); err == nil {
			t.Errorf("NewSession accepted input %v", v)
		}
	}
	for name, opts := range map[string][]SweepOption{
		"default": nil,
		"tile":    {SweepWorkers(1)},
		"single":  {SweepBatchSize(1)},
		"agents":  {SweepLibrary(agentsOnlyLibrary(t))},
	} {
		cache := NewSweepCache()
		results, err := Sweep(context.Background(), overflowSpecs(), append(opts, WithSweepCache(cache))...)
		if err != nil {
			t.Fatal(err)
		}
		if r := results[0]; r.Err == "" || r.Summary != nil {
			t.Errorf("%s: overflowing run not reported as an error: %+v", name, r)
		}
		if r := results[1]; r.Err != "" || r.Summary == nil {
			t.Errorf("%s: neighbour not served: %+v", name, r)
		}
		if entries := cache.Counters().Entries; entries != 1 {
			t.Errorf("%s: cache holds %d entries, want only the neighbour", name, entries)
		}
	}
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestSweepSingleRunAllocsFlat pins the trace-free single-run path: a
// dense single-run unit allocates nothing per round, so a 4000-round run
// allocates no more than a 40-round one. SweepBatchSize(1) keeps the
// count to the unit itself: a batching sweep also formats a tile key,
// whose longer round number can take one more allocation.
func TestSweepSingleRunAllocsFlat(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	allocs := func(rounds int) float64 {
		specs := []RunSpec{{Model: "deaf:16", Algorithm: "midpoint", Adversary: "cycle", Rounds: rounds}}
		return testing.AllocsPerRun(5, func() {
			results, err := Sweep(context.Background(), specs, WithSweepCache(NewSweepCache()), SweepBatchSize(1))
			if err != nil || results[0].Err != "" {
				t.Fatalf("sweep failed: %v %+v", err, results)
			}
		})
	}
	short, long := allocs(40), allocs(4000)
	if long > short {
		t.Fatalf("a 4000-round single run allocates %v times, a 40-round one %v", long, short)
	}
}

// TestSweepTileFlushesKernelMetrics checks the tile-end flush: after a
// sweep of one 100-round tile — not a multiple of the kernel's publish
// window — the kernel's round series counts every round stepped, and
// its plan-cache series equal the plan-cache accounting the tile
// reported.
func TestSweepTileFlushesKernelMetrics(t *testing.T) {
	defer core.SetObsRegistry(obs.Default())
	reg := obs.NewRegistry()
	core.SetObsRegistry(reg)
	const rounds = 100
	specs := make([]RunSpec, 4)
	for i := range specs {
		specs[i] = RunSpec{Model: "deaf:6", Algorithm: "midpoint", Adversary: "random", Seed: int64(i + 1), Rounds: rounds}
	}
	before := PlanCacheTotals()
	results, err := Sweep(context.Background(), specs, WithSweepCache(NewSweepCache()), SweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != "" {
			t.Fatal(r.Err)
		}
	}
	after := PlanCacheTotals()
	if got := reg.CounterValue("repro_kernel_stepeach_rounds_total"); got != rounds {
		t.Errorf("kernel round series reads %d after the sweep, want %d", got, rounds)
	}
	for name, want := range map[string]uint64{
		"repro_kernel_plan_cache_hits_total":      after.Hits - before.Hits,
		"repro_kernel_plan_cache_misses_total":    after.Misses - before.Misses,
		"repro_kernel_plan_cache_evictions_total": after.Evictions - before.Evictions,
		"repro_kernel_plan_cache_deferrals_total": after.Deferrals - before.Deferrals,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, the tile's plan-cache accounting says %d", name, got, want)
		}
	}
	if after.Hits == before.Hits {
		t.Fatal("the tile recorded no plan-cache hits")
	}
}
