package consensus

import (
	"math"

	"repro/internal/obs"
	"repro/internal/valency"
)

// This file binds the sweep plane and the paper-level convergence
// instrument to the process-wide obs registry, obs.Default(), which
// always records. Sampling stays coarse by design — per sweep, per
// tile, per streamed round — never inside the kernel's fold loops
// (those series live in internal/core/obs.go, and the server's status
// reads their plan-cache counters back through core.PlanCacheCounts).
var sweepObs = func() *sweepMetrics {
	r := obs.Default()
	m := &sweepMetrics{
		sweeps: r.Counter("repro_sweep_sweeps_total",
			"Sweep invocations (local execution, including worker shards)."),
		specs: r.Counter("repro_sweep_specs_total",
			"Run specs submitted to local sweeps."),
		cachedSpecs: r.Counter("repro_sweep_cached_specs_total",
			"Sweep specs served from the sweep cache without stepping."),
		failedSpecs: r.Counter("repro_sweep_failed_specs_total",
			"Sweep specs that finished with an error."),
		tiles: r.Counter("repro_sweep_tiles_total",
			"Batched tiles executed on the batch plane."),
		tileSeconds: r.Histogram("repro_sweep_tile_seconds",
			"Wall time of one batched sweep tile, prep to summaries.",
			obs.DurationBuckets()),
		contraction: r.Histogram("repro_run_contraction_rate",
			"Per-round diameter contraction rate d_t/d_{t-1} observed by streamed runs (Session.Rounds).",
			obs.RatioBuckets()),
	}
	registerValencyGauges(r)
	return m
}()

type sweepMetrics struct {
	sweeps      *obs.Counter
	specs       *obs.Counter
	cachedSpecs *obs.Counter
	failedSpecs *obs.Counter
	tiles       *obs.Counter
	tileSeconds *obs.Histogram
	contraction *obs.Histogram
}

// registerValencyGauges exposes the pooled valency engines' aggregate
// transposition-table accounting as scrape-time gauges: the pool is
// shared process-wide (one engine per model spec/params), so the sum
// over it is the process's valency cache state.
func registerValencyGauges(r *obs.Registry) {
	sum := func(pick func(valency.CacheStats) float64) func() float64 {
		return func() float64 {
			engineMu.Lock()
			defer engineMu.Unlock()
			total := 0.0
			for _, e := range enginePool {
				total += pick(e.Stats())
			}
			return total
		}
	}
	r.GaugeFunc("repro_valency_engines",
		"Pooled valency engines (one per model spec and parameter set).",
		func() float64 {
			engineMu.Lock()
			defer engineMu.Unlock()
			return float64(len(enginePool))
		})
	r.GaugeFunc("repro_valency_cache_hits",
		"Aggregate transposition-table hits across pooled valency engines.",
		sum(func(s valency.CacheStats) float64 {
			return float64(s.InnerHits + s.OuterHits + s.LimitHits)
		}))
	r.GaugeFunc("repro_valency_cache_misses",
		"Aggregate transposition-table misses across pooled valency engines.",
		sum(func(s valency.CacheStats) float64 {
			return float64(s.InnerMisses + s.OuterMisses + s.LimitMisses)
		}))
	r.GaugeFunc("repro_valency_cache_entries",
		"Aggregate memoized entries across pooled valency engines.",
		sum(func(s valency.CacheStats) float64 {
			return float64(s.InnerEntries + s.OuterEntries + s.LimitEntries)
		}))
}

// observeSweepOutcome records a finished local sweep's spec-level
// accounting.
func observeSweepOutcome(results []SweepResult) {
	var cached, failed uint64
	for i := range results {
		if results[i].Cached {
			cached++
		}
		if results[i].Err != "" {
			failed++
		}
	}
	sweepObs.sweeps.Inc()
	sweepObs.specs.Add(uint64(len(results)))
	sweepObs.cachedSpecs.Add(cached)
	sweepObs.failedSpecs.Add(failed)
}

// observeContraction wraps a Rounds yield so every consecutive
// diameter pair feeds the contraction-rate histogram — the ICALP'15
// convergence quantity: rate 1.0 means the round contracted nothing,
// +Inf (rate > 1) means expansion. Runs already at diameter 0 stop
// observing.
func observeContraction(yield func(Snapshot, error) bool) func(Snapshot, error) bool {
	prev := math.NaN()
	return func(snap Snapshot, err error) bool {
		if err == nil {
			if prev > 0 {
				sweepObs.contraction.Observe(snap.Diameter / prev)
			}
			prev = snap.Diameter
		}
		return yield(snap, err)
	}
}
