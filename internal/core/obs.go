package core

import (
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// This file wires the batch kernel into the obs metrics plane under a
// strict sampling contract: nothing is published per run or per fold,
// and nothing is published per round either. A round only bumps a
// plain round count in the runner (the goroutine stepping the runner
// owns it, so there are no atomics on the round path); the plan-cache
// series are deltas of the runner's own lifetime counters against the
// values they had at the last publish. The runner publishes every
// obsPublishEvery rounds and whenever its owner calls FlushMetrics (a
// sweep tile does at tile end), so after a flush the series hold
// exactly what was stepped. Every round is a StepEach round (Step fills
// one graph per run and steps through the same path). The round latency
// histogram times one round in obsPublishEvery, chosen by the runner's
// own round count.
//
// The kernel is bound to obs.Default() from init. SetObsRegistry(nil)
// detaches it: the kernel then holds a nil metrics bundle and every
// round skips straight to the raw step, with no clock read, no tally
// and no atomic traffic at all. That detached kernel is the baseline
// of the instrumentation overhead gates (paperbench's obs series).

// kernelMetrics bundles the kernel's process-wide instruments. One
// bundle per registry; resolved once in SetObsRegistry so rounds pay a
// single atomic pointer load.
type kernelMetrics struct {
	stepEachRounds *obs.Counter
	roundSeconds   *obs.Histogram
	planHits       *obs.Counter
	planMisses     *obs.Counter
	planEvicts     *obs.Counter
	planDefers     *obs.Counter
}

var kernelObs atomic.Pointer[kernelMetrics]

func init() { SetObsRegistry(obs.Default()) }

// SetObsRegistry (re)binds the kernel's metrics to a registry — nil
// detaches kernel instrumentation entirely. The process default is
// obs.Default(); tests bind private registries to isolate counts, and
// paperbench toggles nil/fresh to measure instrumentation overhead.
// Not safe to call while another goroutine is mid-step.
func SetObsRegistry(r *obs.Registry) {
	if r == nil {
		kernelObs.Store(nil)
		return
	}
	kernelObs.Store(&kernelMetrics{
		stepEachRounds: r.Counter("repro_kernel_stepeach_rounds_total",
			"Clustered batch rounds stepped (Step, StepEach and their WithHulls forms)."),
		roundSeconds: r.Histogram("repro_kernel_stepeach_round_seconds",
			"Wall time of one clustered StepEach round across the whole batch.",
			obs.DurationBuckets()),
		planHits: r.Counter("repro_kernel_plan_cache_hits_total",
			"Step-plan cache hits (identity memo and key lookups)."),
		planMisses: r.Counter("repro_kernel_plan_cache_misses_total",
			"Step-plan cache misses: plans built, for the cache or private to one replaying run."),
		planEvicts: r.Counter("repro_kernel_plan_cache_evictions_total",
			"Step plans evicted FIFO past the cache cap."),
		planDefers: r.Counter("repro_kernel_plan_cache_deferrals_total",
			"First-sight graphs of one-shot runs stepped per run, without building a plan."),
	})
}

// PlanCacheCounts reads the plan-cache series of the registry the
// kernel is bound to — what every runner has published there, which
// after a runner's FlushMetrics includes all it stepped — and zeros
// while the kernel is detached. The server's status endpoint reports
// these numbers, so its JSON and /metrics read one set of counters.
func PlanCacheCounts() (hits, misses, evictions, deferrals uint64) {
	m := kernelObs.Load()
	if m == nil {
		return 0, 0, 0, 0
	}
	return m.planHits.Value(), m.planMisses.Value(), m.planEvicts.Value(), m.planDefers.Value()
}

// obsPublishEvery is how many instrumented rounds a runner tallies
// before publishing them, and how many rounds share one timed round:
// two clock reads, one histogram observe and five counter adds per 64
// rounds stay inside the 2% overhead gate even on two-run n=16 tiles,
// the cheapest rounds sweeps step (paperbench's obs_small).
const obsPublishEvery = 64

// kernelTally is a runner's unpublished kernel counts: the rounds
// stepped since the last publish, and the lifetime plan-cache counters
// as they stood then, so a publish adds their movement since. eachSeen is the runner's lifetime round count, which
// picks the timed rounds. m is the bundle the counts belong to:
// binding another (or detaching) publishes them there first and
// restarts the baselines, so each count lands in the registry that was
// bound when it was stepped and detached rounds count nowhere.
type kernelTally struct {
	m                    *kernelMetrics
	eachSeen, eachRounds uint64
	hits, misses         uint64
	evicts, defers       uint64
}

// stepEach applies one clustered round, tallying it — and timing it
// when it is the sampled round of its window — when instrumentation is
// bound.
func (r *BatchRunner) stepEach(gs []graph.Graph) (hullDone bool) {
	m := kernelObs.Load()
	if m != r.tally.m {
		r.rebindMetrics(m)
	}
	if m == nil {
		return r.stepEachRaw(gs)
	}
	r.tally.eachSeen++
	if r.tally.eachSeen%obsPublishEvery == 1 {
		start := time.Now()
		hullDone = r.stepEachRaw(gs)
		m.roundSeconds.Observe(time.Since(start).Seconds())
	} else {
		hullDone = r.stepEachRaw(gs)
	}
	r.tally.eachRounds++
	if r.tally.eachRounds == obsPublishEvery {
		r.FlushMetrics()
	}
	return hullDone
}

// rebindMetrics publishes the tally to the bundle it was counted under
// and restarts it under m (nil: detached).
func (r *BatchRunner) rebindMetrics(m *kernelMetrics) {
	r.FlushMetrics()
	r.tally.m = m
}

// FlushMetrics publishes the kernel counts the runner has tallied since
// its last publish to the registry they were counted under. Stepping
// publishes every obsPublishEvery rounds on its own; owners that read
// the series against a finished batch (a sweep tile does at tile end)
// flush first. It never allocates. The plain counters belong to the
// goroutine stepping the runner, so the deltas are exact.
func (r *BatchRunner) FlushMetrics() {
	t := &r.tally
	if m := t.m; m != nil {
		m.stepEachRounds.Add(t.eachRounds)
		m.planHits.Add(r.planHits - t.hits)
		m.planMisses.Add(r.planMisses - t.misses)
		m.planEvicts.Add(r.planEvicts - t.evicts)
		m.planDefers.Add(r.planDefers - t.defers)
	}
	t.eachRounds = 0
	t.hits, t.misses, t.evicts, t.defers = r.planHits, r.planMisses, r.planEvicts, r.planDefers
}
