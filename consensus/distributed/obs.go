package distributed

import (
	"net/http"

	"repro/internal/obs"
)

// This file binds the distributed plane to per-instance obs
// registries, beside the process-wide obs.Default() that carries the
// kernel and sweep series. The coordinator's registry and the worker's
// (its embedded server's) are the single source of truth behind
// /api/v1/status: the status endpoints read their counters back from
// the instruments /metrics exposes.

// coordTracerCapacity bounds the coordinator's span ring: one root
// span per sweep plus one child per shard, oldest evicted first.
const coordTracerCapacity = 4096

// coordMetrics holds the coordinator's instruments. Every counter
// that /api/v1/status reports lives here; Status() reads the values
// back from these instruments so the JSON surface and /metrics can
// never disagree.
type coordMetrics struct {
	sweeps           *obs.Counter
	specsServed      *obs.Counter
	specsFromStore   *obs.Counter
	specsComputed    *obs.Counter
	specsFailed      *obs.Counter
	shardsDispatched *obs.Counter
	shardRetries     *obs.Counter
	shardReroutes    *obs.Counter
	shardFailures    *obs.Counter
	rejected         *obs.Counter
	fpMismatches     *obs.Counter
	sseBatches       *obs.Counter
	queueDepth       *obs.Gauge
	shardSeconds     *obs.Histogram
}

func newCoordMetrics(r *obs.Registry) *coordMetrics {
	return &coordMetrics{
		sweeps: r.Counter("repro_coord_sweeps_total",
			"Distributed sweeps admitted past backpressure."),
		specsServed: r.Counter("repro_coord_specs_served_total",
			"Run specs carried by admitted distributed sweeps."),
		specsFromStore: r.Counter("repro_coord_specs_from_store_total",
			"Specs served straight from the content-addressed store."),
		specsComputed: r.Counter("repro_coord_specs_computed_total",
			"Specs computed by workers and returned without error."),
		specsFailed: r.Counter("repro_coord_specs_failed_total",
			"Specs that failed: fingerprint resolution, shard exhaustion, or per-spec worker errors."),
		shardsDispatched: r.Counter("repro_coord_shards_dispatched_total",
			"Shards handed to the dispatch loop."),
		shardRetries: r.Counter("repro_coord_shard_retries_total",
			"Shard attempts past the first."),
		shardReroutes: r.Counter("repro_coord_shard_reroutes_total",
			"Shard attempts sent somewhere other than the rendezvous-preferred worker."),
		shardFailures: r.Counter("repro_coord_shard_failures_total",
			"Shards that exhausted every attempt."),
		rejected: r.Counter("repro_coord_rejected_total",
			"Sweeps rejected by queue backpressure (BusyError / HTTP 429)."),
		fpMismatches: r.Counter("repro_coord_fp_mismatches_total",
			"Worker results whose fingerprint disagreed with the coordinator's (result kept, store skipped)."),
		sseBatches: r.Counter("repro_coord_sse_batches_total",
			"Server-sent 'results' batches written to streaming sweep clients."),
		queueDepth: r.Gauge("repro_coord_queue_depth",
			"Shards admitted and not yet finished."),
		shardSeconds: r.Histogram("repro_coord_shard_seconds",
			"Wall time of one shard from dispatch to final verdict, retries included.",
			obs.DurationBuckets()),
	}
}

// registerCoordGauges exposes scrape-time views of the coordinator's
// fleet and store. Registered after construction because the closures
// need the finished Coordinator.
func (c *Coordinator) registerCoordGauges() {
	c.reg.GaugeFunc("repro_coord_workers",
		"Registered workers.",
		func() float64 { return float64(c.WorkerCount()) })
	c.reg.GaugeFunc("repro_coord_workers_healthy",
		"Registered workers whose last health probe succeeded.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, w := range c.workers {
				if w.healthy.Load() {
					n++
				}
			}
			return float64(n)
		})
	c.reg.GaugeFunc("repro_coord_queue_capacity",
		"Admission bound on unfinished shards.",
		func() float64 { return float64(c.queueCap) })
	c.reg.GaugeFunc("repro_coord_store_hits",
		"Content-addressed store lookups served.",
		func() float64 { return float64(c.store.Counters().Hits) })
	c.reg.GaugeFunc("repro_coord_store_misses",
		"Content-addressed store lookups missed.",
		func() float64 { return float64(c.store.Counters().Misses) })
	c.reg.GaugeFunc("repro_coord_store_evictions",
		"Summaries evicted from the content-addressed store.",
		func() float64 { return float64(c.store.Counters().Evictions) })
	c.reg.GaugeFunc("repro_coord_store_entries",
		"Summaries resident in the content-addressed store.",
		func() float64 { return float64(c.store.Counters().Entries) })
	c.reg.GaugeFunc("repro_coord_store_hit_rate",
		"Store hits over lookups (0 when no lookups yet).",
		func() float64 { return c.store.Counters().HitRate() })
}

// handleMetrics serves the coordinator registry plus the process-wide
// default registry (kernel/sweep series from any local computation) as
// Prometheus text.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteAllPrometheus(w, c.reg, obs.Default())
}

// handleSpans exports the span ring as JSON, oldest first.
func (c *Coordinator) handleSpans(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = c.tracer.WriteJSON(w)
}

// workerMetrics holds the worker's shard-endpoint instruments. They
// live on the registry shared with the embedded consensus.Server, so
// the server's /metrics covers both planes in one scrape.
type workerMetrics struct {
	shards      *obs.Counter
	shardSpecs  *obs.Counter
	shardErrors *obs.Counter
}

func newWorkerMetrics(r *obs.Registry) *workerMetrics {
	return &workerMetrics{
		shards: r.Counter("repro_worker_shards_total",
			"Shard requests executed to completion."),
		shardSpecs: r.Counter("repro_worker_shard_specs_total",
			"Run specs carried by completed shard requests."),
		shardErrors: r.Counter("repro_worker_shard_errors_total",
			"Shard requests rejected or failed."),
	}
}
