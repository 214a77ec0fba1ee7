package consensus

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/httpjson"
	"repro/internal/obs"
)

// ServerOption configures a Server.
type ServerOption func(*Server)

// ServerTimeout bounds each query's computation (default 30s).
func ServerTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.timeout = d }
}

// ServerLibrary resolves every query against lib.
func ServerLibrary(lib *Library) ServerOption {
	return func(s *Server) { s.lib = lib }
}

// ServerSweepCache memoizes the server's sweeps in c instead of in a
// cache the server builds for itself.
func ServerSweepCache(c *SweepCache) ServerOption {
	return func(s *Server) { s.sweepCache = c }
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
// Every query runs under the server's per-query timeout. The server
// holds one result cache: its sweep cache, which memoizes sweep runs by
// fingerprint (a repeated sweep answers "cached": true). Every other
// query is computed on each request.
type Server struct {
	mux        *http.ServeMux
	timeout    time.Duration
	lib        *Library
	sweepCache *SweepCache

	// reg is the server's instance metrics registry (per-endpoint
	// request counters and latency histograms, cache gauges), served by
	// GET /metrics alongside the process-wide obs.Default() series.
	reg *obs.Registry
}

// NewServer builds the query server.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{timeout: 30 * time.Second, reg: obs.NewRegistry()}
	for _, opt := range opts {
		opt(s)
	}
	if s.sweepCache == nil {
		s.sweepCache = NewSweepCache()
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
// (kernel, sweep, valency, convergence).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteAllPrometheus(w, s.reg, obs.Default())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// answer runs one query under the per-query timeout and writes its
// result, or its error under the status httpjson.StatusOf maps it to.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, query func(ctx context.Context) (any, error)) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	v, err := query(ctx)
	cancel()
	if err != nil {
		httpjson.WriteError(w, httpjson.StatusOf(err), err)
		return
	}
	httpjson.Write(w, http.StatusOK, v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ScenarioCacheStats is the /api/v1/status view of the scenario
// registry's resolution cache.
type ScenarioCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// PlanCacheCounters is the /api/v1/status view of the kernel's
// step-plan cache accounting: the process's
// repro_kernel_plan_cache_*_total series (see
// core.BatchRunner.PlanCacheStats for the per-field semantics).
type PlanCacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Deferrals uint64 `json:"deferrals"`
}

// StatusReport is the /api/v1/status payload: the serving caches'
// hit/miss/eviction accounting. The same report (extended with shard
// and queue sections) backs the distributed coordinator and worker
// status endpoints.
type StatusReport struct {
	SweepCache    SweepCacheCounters `json:"sweep_cache"`
	SweepHitRate  float64            `json:"sweep_cache_hit_rate"`
	PlanCache     PlanCacheCounters  `json:"plan_cache"`
	ScenarioCache ScenarioCacheStats `json:"scenario_cache"`
}

// Status returns the server's cache accounting snapshot. The plan
// cache is read from the kernel's registry series, so it agrees with
// GET /metrics.
func (s *Server) Status() StatusReport {
	sc := s.sweepCache.Counters()
	rep := StatusReport{SweepCache: sc, SweepHitRate: sc.HitRate()}
	pc := &rep.PlanCache
	pc.Hits, pc.Misses, pc.Evictions, pc.Deferrals = core.PlanCacheCounts()
	h, m, n := s.lib.scenarios().ResolveCacheStats()
	rep.ScenarioCache = ScenarioCacheStats{Hits: h, Misses: m, Entries: n}
	return rep
}

// SweepCacheCounters returns the accounting of the sweep cache this
// server serves from (for startup logging and tests).
func (s *Server) SweepCacheCounters() SweepCacheCounters { return s.sweepCache.Counters() }

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, http.StatusOK, s.Status())
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
	httpjson.Write(w, http.StatusOK, registryResponse{
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

// MaxServedRounds bounds a single served run: the run and scenario
// endpoints keep and JSON-encode one diameter per round (8 MiB of
// float64s at the cap, before encoding), so unbounded client-chosen
// round counts would trade the per-query CPU timeout for unbounded
// memory. Longer executions belong in-process on the constant-memory
// Rounds iterator. The distributed coordinator and workers enforce the
// same cap per shard spec.
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
	if err := httpjson.Decode(w, r, &spec); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := CheckServedRounds(spec.Rounds); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.answer(w, r, func(ctx context.Context) (any, error) {
		session, err := NewSession(spec, WithLibrary(s.lib))
		if err != nil {
			return nil, err
		}
		src, _, err := session.newSource(ctx)
		if err != nil {
			return nil, err
		}
		resp := runResponse{Spec: spec}
		if resp.Summary, resp.Diameters, err = session.summarize(ctx, src, true); err != nil {
			return nil, err
		}
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
	if err := httpjson.Decode(w, r, &req); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Specs) == 0 {
		httpjson.WriteError(w, http.StatusBadRequest, fmt.Errorf("consensus: sweep needs at least one spec"))
		return
	}
	for _, spec := range req.Specs {
		if err := CheckServedRounds(spec.Rounds); err != nil {
			httpjson.WriteError(w, http.StatusBadRequest, err)
			return
		}
	}
	s.answer(w, r, func(ctx context.Context) (any, error) {
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
		httpjson.WriteError(w, http.StatusBadRequest, fmt.Errorf("consensus: solvability needs a ?model= spec"))
		return
	}
	s.answer(w, r, func(ctx context.Context) (any, error) {
		return Solvability(ctx, modelSpec, s.queryOptions()...)
	})
}

func (s *Server) handleValency(w http.ResponseWriter, r *http.Request) {
	var req ValencyRequest
	if err := httpjson.Decode(w, r, &req); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.answer(w, r, func(ctx context.Context) (any, error) {
		return ValencyBounds(ctx, req, s.queryOptions()...)
	})
}

// decisionResponse is the /api/v1/decision payload.
type decisionResponse struct {
	Points []DecisionPoint `json:"points"`
}

func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	var req DecisionRequest
	if err := httpjson.Decode(w, r, &req); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.answer(w, r, func(ctx context.Context) (any, error) {
		points, err := DecisionSweep(ctx, req, s.queryOptions()...)
		if err != nil {
			return nil, err
		}
		return decisionResponse{Points: points}, nil
	})
}

func (s *Server) handleAsync(w http.ResponseWriter, r *http.Request) {
	var spec AsyncSpec
	if err := httpjson.Decode(w, r, &spec); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.answer(w, r, func(ctx context.Context) (any, error) {
		return AsyncRun(ctx, spec, s.queryOptions()...)
	})
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if err := httpjson.Decode(w, r, &req); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := CheckServedRounds(req.Rounds); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.answer(w, r, func(ctx context.Context) (any, error) {
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
	httpjson.Write(w, http.StatusOK, map[string]any{"experiments": Experiments()})
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
	if err := httpjson.Decode(w, r, &req); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.answer(w, r, func(ctx context.Context) (any, error) {
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
