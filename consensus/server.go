package consensus

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// ServerOption configures a Server.
type ServerOption func(*Server)

// ServerTimeout bounds each query's computation (default 30s).
func ServerTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.timeout = d }
}

// ServerCacheSize bounds the response cache entry count (default 1024;
// 0 disables response caching).
func ServerCacheSize(n int) ServerOption {
	return func(s *Server) { s.cacheMax = n }
}

// ServerLibrary resolves every query against lib.
func ServerLibrary(lib *Library) ServerOption {
	return func(s *Server) { s.lib = lib }
}

// ServerSweepCache uses the given sweep cache instead of the shared
// default.
func ServerSweepCache(c *SweepCache) ServerOption {
	return func(s *Server) { s.sweepCache = c }
}

// ServerObsRegistry backs the server's request metrics and cache
// gauges with the given registry instead of a private one — the
// distributed worker shares its registry with its embedded server so
// one /metrics scrape covers both.
func ServerObsRegistry(r *obs.Registry) ServerOption {
	return func(s *Server) { s.reg = r }
}

// Server is the query server over the engines: an http.Handler exposing
// runs, sweeps, solvability and valency analysis, asynchronous
// simulations, and the paper-reproduction experiments as JSON endpoints.
//
// Endpoints (all under /api/v1):
//
//	GET  /healthz              liveness
//	GET  /api/v1/status        cache hit/miss/eviction counters
//	GET  /api/v1/registry      registered algorithms, models, adversaries
//	POST /api/v1/run           RunSpec -> RunSummary (+ diameters)
//	POST /api/v1/sweep         {"specs": [RunSpec...]} -> {"results": ...}
//	GET  /api/v1/solvability   ?model=SPEC -> SolvabilityReport
//	POST /api/v1/valency       ValencyRequest -> ValencyReport
//	POST /api/v1/decision      DecisionRequest -> {"points": ...}
//	POST /api/v1/async         AsyncSpec -> AsyncResult
//	POST /api/v1/scenario      ScenarioRequest -> ScenarioReport
//	GET  /api/v1/experiments   experiment listing
//	POST /api/v1/experiment    {"id": ...} -> table (+ rendered text)
//
// Every query runs under the server's per-query timeout. Successful
// responses of deterministic endpoints are cached by canonical request
// body; the X-Repro-Cache header reports hit or miss.
type Server struct {
	mux        *http.ServeMux
	timeout    time.Duration
	lib        *Library
	sweepCache *SweepCache

	// reg is the server's always-on instance metrics registry (per-
	// endpoint request counters and latency histograms, cache gauges),
	// served by GET /metrics alongside the process-wide obs.Default()
	// series. Instance registries are deliberately not subject to
	// REPRO_OBS: status endpoints read them.
	reg *obs.Registry

	cacheMu     sync.Mutex
	cache       map[string][]byte
	cacheMax    int
	cacheBytes  int
	cacheHits   uint64
	cacheMisses uint64
}

// Response-cache byte bounds: the entry-count cap alone would not stop a
// few maximum-size run responses (megabytes of diameters each) from
// growing the cache without limit in bytes.
const (
	maxCacheTotalBytes = 64 << 20
	maxCacheEntryBytes = 4 << 20
)

// NewServer builds the query server.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		timeout:    30 * time.Second,
		cacheMax:   1024,
		cache:      make(map[string][]byte),
		sweepCache: defaultSweepCache,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.registerCacheGauges()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /api/v1/status", s.instrument("status", s.handleStatus))
	mux.HandleFunc("GET /api/v1/registry", s.instrument("registry", s.handleRegistry))
	mux.HandleFunc("POST /api/v1/run", s.instrument("run", s.handleRun))
	mux.HandleFunc("POST /api/v1/sweep", s.instrument("sweep", s.handleSweep))
	mux.HandleFunc("GET /api/v1/solvability", s.instrument("solvability", s.handleSolvability))
	mux.HandleFunc("POST /api/v1/valency", s.instrument("valency", s.handleValency))
	mux.HandleFunc("POST /api/v1/decision", s.instrument("decision", s.handleDecision))
	mux.HandleFunc("POST /api/v1/async", s.instrument("async", s.handleAsync))
	mux.HandleFunc("POST /api/v1/scenario", s.instrument("scenario", s.handleScenario))
	mux.HandleFunc("GET /api/v1/experiments", s.instrument("experiments", s.handleExperiments))
	mux.HandleFunc("POST /api/v1/experiment", s.instrument("experiment", s.handleExperiment))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Registry returns the server's instance metrics registry, so
// embedding handlers (the distributed worker) can add their own series
// to the same /metrics exposition.
func (s *Server) Registry() *obs.Registry { return s.reg }

// instrument wraps an endpoint handler with its per-endpoint request
// counter and latency histogram. The instruments are resolved once at
// registration; the per-request cost is one clock pair and two atomic
// updates.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter(
		fmt.Sprintf("repro_server_requests_total{endpoint=%q}", endpoint),
		"HTTP requests served, by endpoint.")
	lat := s.reg.Histogram(
		fmt.Sprintf("repro_server_request_seconds{endpoint=%q}", endpoint),
		"HTTP request latency in seconds, by endpoint.",
		obs.DurationBuckets())
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		lat.Observe(time.Since(start).Seconds())
		reqs.Inc()
	}
}

// registerCacheGauges exposes the serving caches' accounting as
// scrape-time gauges on the instance registry — the same numbers
// /api/v1/status reports, in Prometheus form.
func (s *Server) registerCacheGauges() {
	respStat := func(pick func(ResponseCacheStats) float64) func() float64 {
		return func() float64 { return pick(s.Status().ResponseCache) }
	}
	s.reg.GaugeFunc("repro_server_response_cache_hits",
		"Response-cache hits (lifetime).", respStat(func(c ResponseCacheStats) float64 { return float64(c.Hits) }))
	s.reg.GaugeFunc("repro_server_response_cache_misses",
		"Response-cache misses (lifetime).", respStat(func(c ResponseCacheStats) float64 { return float64(c.Misses) }))
	s.reg.GaugeFunc("repro_server_response_cache_entries",
		"Response-cache entries resident.", respStat(func(c ResponseCacheStats) float64 { return float64(c.Entries) }))
	s.reg.GaugeFunc("repro_server_response_cache_bytes",
		"Response-cache resident bytes.", respStat(func(c ResponseCacheStats) float64 { return float64(c.Bytes) }))
	s.reg.GaugeFunc("repro_server_sweep_cache_hits",
		"Sweep-cache hits (lifetime).", func() float64 { return float64(s.sweepCache.Counters().Hits) })
	s.reg.GaugeFunc("repro_server_sweep_cache_misses",
		"Sweep-cache misses (lifetime).", func() float64 { return float64(s.sweepCache.Counters().Misses) })
	s.reg.GaugeFunc("repro_server_sweep_cache_entries",
		"Sweep-cache entries resident.", func() float64 { return float64(s.sweepCache.Counters().Entries) })
	s.reg.GaugeFunc("repro_server_sweep_cache_hit_rate",
		"Sweep-cache hit rate (lifetime).", func() float64 { return s.sweepCache.Counters().HitRate() })
	s.reg.GaugeFunc("repro_server_scenario_cache_hits",
		"Scenario resolution cache hits (lifetime).", func() float64 {
			h, _, _ := s.lib.scenarios().ResolveCacheStats()
			return float64(h)
		})
	s.reg.GaugeFunc("repro_server_scenario_cache_misses",
		"Scenario resolution cache misses (lifetime).", func() float64 {
			_, m, _ := s.lib.scenarios().ResolveCacheStats()
			return float64(m)
		})
}

// handleMetrics serves the Prometheus text exposition: the server's
// instance registry followed by the process-wide hot-path series
// (kernel, sweep, valency, convergence — absent under REPRO_OBS=off).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteAllPrometheus(w, s.reg, obs.Default())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// statusOf maps a query error to an HTTP status.
func statusOf(err error) int {
	if err == context.DeadlineExceeded || err == context.Canceled {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// queryCtx derives the per-query context.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.timeout)
}

// maxRequestBytes bounds a request body: the server caps its outputs
// (MaxServedRounds, the cache byte bounds), so inputs must be bounded
// too or one oversized POST buffers gigabytes before validation runs.
const maxRequestBytes = 8 << 20

// decodeBody strictly decodes the size-limited JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("consensus: bad request body: %v", err)
	}
	return nil
}

// cached serves the response for key from the cache, or computes it via
// f, caching successes. The cache key must canonically determine the
// response.
func (s *Server) cached(w http.ResponseWriter, key string, f func() (any, error)) {
	if s.cacheMax > 0 {
		s.cacheMu.Lock()
		body, hit := s.cache[key]
		if hit {
			s.cacheHits++
		} else {
			s.cacheMisses++
		}
		s.cacheMu.Unlock()
		if hit {
			w.Header().Set("X-Repro-Cache", "hit")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body)
			return
		}
	}
	v, err := f()
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	body = append(body, '\n')
	if s.cacheMax > 0 && len(body) <= maxCacheEntryBytes {
		s.cacheMu.Lock()
		for k, v := range s.cache {
			if len(s.cache) < s.cacheMax && s.cacheBytes+len(body) <= maxCacheTotalBytes {
				break
			}
			delete(s.cache, k)
			s.cacheBytes -= len(v)
		}
		s.cache[key] = body
		s.cacheBytes += len(body)
		s.cacheMu.Unlock()
	}
	w.Header().Set("X-Repro-Cache", "miss")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ResponseCacheStats is the /api/v1/status view of the server's
// canonical-request response cache.
type ResponseCacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Bytes    int    `json:"bytes"`
	Capacity int    `json:"capacity"`
}

// ScenarioCacheStats is the /api/v1/status view of the scenario
// registry's resolution cache.
type ScenarioCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// StatusReport is the /api/v1/status payload: the serving caches'
// hit/miss/eviction accounting. The same report (extended with shard
// and queue sections) backs the distributed coordinator and worker
// status endpoints.
type StatusReport struct {
	SweepCache    SweepCacheCounters `json:"sweep_cache"`
	SweepHitRate  float64            `json:"sweep_cache_hit_rate"`
	PlanCache     PlanCacheCounters  `json:"plan_cache"`
	ResponseCache ResponseCacheStats `json:"response_cache"`
	ScenarioCache ScenarioCacheStats `json:"scenario_cache"`
}

// Status returns the server's cache accounting snapshot.
func (s *Server) Status() StatusReport {
	sc := s.sweepCache.Counters()
	rep := StatusReport{
		SweepCache:   sc,
		SweepHitRate: sc.HitRate(),
		PlanCache:    PlanCacheTotals(),
	}
	s.cacheMu.Lock()
	rep.ResponseCache = ResponseCacheStats{
		Hits:     s.cacheHits,
		Misses:   s.cacheMisses,
		Entries:  len(s.cache),
		Bytes:    s.cacheBytes,
		Capacity: s.cacheMax,
	}
	s.cacheMu.Unlock()
	h, m, n := s.lib.scenarios().ResolveCacheStats()
	rep.ScenarioCache = ScenarioCacheStats{Hits: h, Misses: m, Entries: n}
	return rep
}

// SweepCacheCounters returns the accounting of the sweep cache this
// server serves from (for startup logging and tests).
func (s *Server) SweepCacheCounters() SweepCacheCounters { return s.sweepCache.Counters() }

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// registryResponse is the /api/v1/registry payload.
type registryResponse struct {
	Algorithms  []FactoryInfo `json:"algorithms"`
	Models      []FactoryInfo `json:"models"`
	Adversaries []FactoryInfo `json:"adversaries"`
	Scenarios   []FactoryInfo `json:"scenarios"`
	Experiments int           `json:"experiments"`
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, registryResponse{
		Algorithms:  s.lib.algorithms().Describe(),
		Models:      s.lib.models().Describe(),
		Adversaries: s.lib.adversaries().Describe(),
		Scenarios:   s.lib.scenarios().Describe(),
		Experiments: len(Experiments()),
	})
}

// runResponse is the /api/v1/run payload.
type runResponse struct {
	Spec      RunSpec    `json:"spec"`
	Summary   RunSummary `json:"summary"`
	Diameters []float64  `json:"diameters"`
}

// MaxServedRounds bounds a single served run: the run endpoint
// materializes one value vector per round (and JSON-encodes the diameter
// series), so unbounded client-chosen round counts would trade the
// per-query CPU timeout for unbounded memory. Longer executions belong
// in-process on the constant-memory Rounds iterator. The distributed
// coordinator and workers enforce the same cap per shard spec.
const MaxServedRounds = 1 << 20

// CheckServedRounds rejects round budgets past MaxServedRounds.
func CheckServedRounds(rounds int) error {
	if rounds > MaxServedRounds {
		return fmt.Errorf("consensus: served runs are capped at %d rounds, got %d", MaxServedRounds, rounds)
	}
	return nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	if err := decodeBody(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := CheckServedRounds(spec.Rounds); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := cacheKeyOf("run", spec)
	s.cached(w, key, func() (any, error) {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		session, err := NewSession(spec, WithLibrary(s.lib))
		if err != nil {
			return nil, err
		}
		res, err := session.Run(ctx)
		if err != nil {
			return nil, err
		}
		resp := runResponse{Spec: spec, Summary: Summarize(res), Diameters: res.Diameters()}
		if err := resp.Summary.checkFinite(resp.Diameters...); err != nil {
			return nil, err
		}
		return resp, nil
	})
}

// sweepRequest is the /api/v1/sweep body.
type sweepRequest struct {
	Specs   []RunSpec `json:"specs"`
	Workers int       `json:"workers,omitempty"`
}

// sweepResponse is the /api/v1/sweep payload.
type sweepResponse struct {
	Results []SweepResult `json:"results"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("consensus: sweep needs at least one spec"))
		return
	}
	for _, spec := range req.Specs {
		if err := CheckServedRounds(spec.Rounds); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	key := cacheKeyOf("sweep", req)
	s.cached(w, key, func() (any, error) {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		opts := []SweepOption{WithSweepCache(s.sweepCache)}
		if s.lib != nil {
			opts = append(opts, SweepLibrary(s.lib))
		}
		if req.Workers > 0 {
			opts = append(opts, SweepWorkers(req.Workers))
		}
		results, err := Sweep(ctx, req.Specs, opts...)
		if err != nil {
			return nil, err
		}
		return sweepResponse{Results: results}, nil
	})
}

func (s *Server) handleSolvability(w http.ResponseWriter, r *http.Request) {
	modelSpec := r.URL.Query().Get("model")
	if modelSpec == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("consensus: solvability needs a ?model= spec"))
		return
	}
	s.cached(w, "solvability|"+modelSpec, func() (any, error) {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		return Solvability(ctx, modelSpec, s.queryOptions()...)
	})
}

func (s *Server) handleValency(w http.ResponseWriter, r *http.Request) {
	var req ValencyRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := cacheKeyOf("valency", req)
	s.cached(w, key, func() (any, error) {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		rep, err := ValencyBounds(ctx, req, s.queryOptions()...)
		if err != nil {
			return nil, err
		}
		// The hit rate depends on query order, not on the query itself;
		// zero it so cached responses are canonical.
		rep.CacheHitRate = 0
		return rep, nil
	})
}

// decisionResponse is the /api/v1/decision payload.
type decisionResponse struct {
	Points []DecisionPoint `json:"points"`
}

func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	var req DecisionRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := cacheKeyOf("decision", req)
	s.cached(w, key, func() (any, error) {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		points, err := DecisionSweep(ctx, req, s.queryOptions()...)
		if err != nil {
			return nil, err
		}
		return decisionResponse{Points: points}, nil
	})
}

func (s *Server) handleAsync(w http.ResponseWriter, r *http.Request) {
	var spec AsyncSpec
	if err := decodeBody(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := cacheKeyOf("async", spec)
	s.cached(w, key, func() (any, error) {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		return AsyncRun(ctx, spec, s.queryOptions()...)
	})
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := CheckServedRounds(req.Rounds); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := cacheKeyOf("scenario", req)
	s.cached(w, key, func() (any, error) {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		sch, err := resolveScenarioRequest(req, s.lib)
		if err != nil {
			return nil, err
		}
		// The certification and run horizon defaults to the schedule's
		// Horizon, which an uploaded trace chooses; hold it to the
		// served-run cap before doing per-round work.
		horizon := req.Rounds
		if horizon <= 0 {
			horizon = sch.Horizon()
		}
		if err := CheckServedRounds(horizon); err != nil {
			return nil, err
		}
		return runScenarioResolved(ctx, sch, req, s.lib)
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": Experiments()})
}

// experimentRequest is the /api/v1/experiment body.
type experimentRequest struct {
	ID string `json:"id"`
}

// experimentResponse is the /api/v1/experiment payload.
type experimentResponse struct {
	*ExperimentResult
	Text string `json:"text"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req experimentRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.cached(w, "experiment|"+req.ID, func() (any, error) {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		res, err := RunExperiment(ctx, req.ID)
		if err != nil {
			return nil, err
		}
		return experimentResponse{ExperimentResult: res, Text: res.Render()}, nil
	})
}

// queryOptions lowers the server library to query options.
func (s *Server) queryOptions() []QueryOption {
	if s.lib == nil {
		return nil
	}
	return []QueryOption{QueryLibrary(s.lib)}
}

// cacheKeyOf canonicalizes a request into a cache key.
func cacheKeyOf(endpoint string, v any) string {
	body, err := json.Marshal(v)
	if err != nil {
		return endpoint + "|uncacheable"
	}
	return endpoint + "|" + string(body)
}
