package distributed

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/consensus"
	"repro/internal/httpjson"
	"repro/internal/obs"
)

// DefaultMaxShardSpecs bounds the specs one shard request may carry.
// The coordinator's default shard size is far below it; the worker-side
// bound exists so a hostile or misconfigured coordinator cannot pin a
// worker with one giant shard.
const DefaultMaxShardSpecs = 1024

// WorkerOption configures a Worker.
type WorkerOption func(*workerConfig)

type workerConfig struct {
	lib     *consensus.Library
	timeout time.Duration
}

// WorkerLibrary resolves every shard spec against lib.
func WorkerLibrary(lib *consensus.Library) WorkerOption {
	return func(c *workerConfig) { c.lib = lib }
}

// WorkerTimeout bounds each shard's computation (default 30s).
func WorkerTimeout(d time.Duration) WorkerOption {
	return func(c *workerConfig) { c.timeout = d }
}

// Worker is the worker-side handler: the full single-process
// consensus.Server surface (run, sweep, scenario, experiments, status,
// ...) plus the shard execution endpoint the coordinator fans out to:
//
//	POST /api/v1/shard    ShardRequest -> ShardResponse (ShardResults, no spec echo)
//	GET  /api/v1/status   WorkerStatus (server caches + shard counters)
//
// Shards execute through the ordinary Sweep path against the worker's
// own fingerprint-keyed sweep cache, so the batch plane (tiles spread
// over the worker's cores, plan caching) is fully engaged per worker and
// a re-routed or re-submitted shard re-serves cached runs locally.
type Worker struct {
	mux     *http.ServeMux
	inner   *consensus.Server
	lib     *consensus.Library
	cache   *consensus.SweepCache
	timeout time.Duration

	// reg is shared with the embedded server, so the server's GET
	// /metrics (reached through the catch-all route) exposes the shard
	// counters alongside the request and cache series. Status() reads
	// the counters back from these instruments.
	reg *obs.Registry
	met *workerMetrics
}

// NewWorker builds the worker handler.
func NewWorker(opts ...WorkerOption) *Worker {
	cfg := workerConfig{timeout: 30 * time.Second}
	for _, opt := range opts {
		opt(&cfg)
	}
	cache, reg := consensus.NewSweepCache(), obs.NewRegistry()
	serverOpts := []consensus.ServerOption{
		consensus.ServerTimeout(cfg.timeout),
		consensus.ServerSweepCache(cache),
		consensus.ServerObsRegistry(reg),
	}
	if cfg.lib != nil {
		serverOpts = append(serverOpts, consensus.ServerLibrary(cfg.lib))
	}
	w := &Worker{
		inner:   consensus.NewServer(serverOpts...),
		lib:     cfg.lib,
		cache:   cache,
		timeout: cfg.timeout,
		reg:     reg,
		met:     newWorkerMetrics(reg),
	}
	mux := http.NewServeMux()
	mux.Handle("/", w.inner)
	mux.HandleFunc("POST /api/v1/shard", w.handleShard)
	mux.HandleFunc("GET /api/v1/status", w.handleStatus)
	w.mux = mux
	return w
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

// SweepCacheCounters returns the worker's sweep-cache accounting.
func (w *Worker) SweepCacheCounters() consensus.SweepCacheCounters { return w.cache.Counters() }

// Registry exposes the worker's always-on metrics registry (shared
// with the embedded server).
func (w *Worker) Registry() *obs.Registry { return w.reg }

func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := httpjson.Decode(rw, r, &req); err != nil {
		w.met.shardErrors.Inc()
		httpjson.WriteError(rw, http.StatusBadRequest, err)
		return
	}
	if len(req.Specs) == 0 {
		w.met.shardErrors.Inc()
		httpjson.WriteError(rw, http.StatusBadRequest, fmt.Errorf("distributed: shard needs at least one spec"))
		return
	}
	if len(req.Specs) > DefaultMaxShardSpecs {
		w.met.shardErrors.Inc()
		httpjson.WriteError(rw, http.StatusBadRequest,
			fmt.Errorf("distributed: shard carries %d specs, worker cap is %d", len(req.Specs), DefaultMaxShardSpecs))
		return
	}
	for _, spec := range req.Specs {
		if err := consensus.CheckServedRounds(spec.Rounds); err != nil {
			w.met.shardErrors.Inc()
			httpjson.WriteError(rw, http.StatusBadRequest, err)
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), w.timeout)
	defer cancel()
	opts := []consensus.SweepOption{consensus.WithSweepCache(w.cache)}
	if w.lib != nil {
		opts = append(opts, consensus.SweepLibrary(w.lib))
	}
	if req.Workers > 0 {
		opts = append(opts, consensus.SweepWorkers(req.Workers))
	}
	results, err := consensus.Sweep(ctx, req.Specs, opts...)
	if err != nil {
		w.met.shardErrors.Inc()
		httpjson.WriteError(rw, httpjson.StatusOf(err), err)
		return
	}
	w.met.shards.Inc()
	w.met.shardSpecs.Add(uint64(len(req.Specs)))
	out := make([]ShardResult, len(results))
	for i, r := range results {
		out[i] = ShardResult{Fingerprint: r.Fingerprint, Cached: r.Cached, Summary: r.Summary, Err: r.Err}
	}
	httpjson.Write(rw, http.StatusOK, ShardResponse{Shard: req.Shard, Results: out})
}

func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	httpjson.Write(rw, http.StatusOK, WorkerStatus{
		StatusReport: w.inner.Status(),
		Shards:       w.met.shards.Value(),
		ShardSpecs:   w.met.shardSpecs.Value(),
		ShardErrors:  w.met.shardErrors.Value(),
	})
}
