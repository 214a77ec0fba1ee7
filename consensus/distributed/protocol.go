package distributed

import (
	"repro/consensus"
)

// This file pins the coordinator/worker wire protocol. Everything is
// compact JSON over HTTP. The client-facing payloads carry the same
// consensus.SweepResult values the single-process /api/v1/sweep
// returns, so a client (and the CI parity gate) can diff the two paths
// byte for byte after dropping the transport-dependent Cached flag. The
// shard hop carries only what a worker computes (ShardResult): the
// coordinator already holds each shard spec and its request index, and
// attaches both when it merges.

// SweepRequest is the body of the coordinator's POST /api/v1/sweep and
// POST /api/v1/sweep/stream — the same shape as the single-process sweep
// endpoint. Workers, when positive, bounds each worker's sweep pool.
type SweepRequest struct {
	Specs   []consensus.RunSpec `json:"specs"`
	Workers int                 `json:"workers,omitempty"`
}

// SweepStats summarizes one distributed sweep: how the specs were
// served. It rides the merged response and the final SSE "done" event.
type SweepStats struct {
	Specs     int   `json:"specs"`
	StoreHits int   `json:"store_hits"`
	Computed  int   `json:"computed"`
	Errors    int   `json:"errors"`
	Shards    int   `json:"shards"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// SweepResponse is the merged (non-streaming) distributed sweep payload:
// one result per spec in input order, plus the serving stats.
type SweepResponse struct {
	Results []consensus.SweepResult `json:"results"`
	Stats   SweepStats              `json:"stats"`
}

// ResultsEvent is the payload of one SSE "results" event: the results of
// one completed shard (or the request's store hits and resolution
// errors, emitted first), indexed by the submitted spec order.
type ResultsEvent struct {
	Results []consensus.SweepResult `json:"results"`
}

// ShardRequest is the body of the worker's POST /api/v1/shard: one
// fingerprint-keyed slice of a distributed sweep. Spec order is the
// shard's own; the coordinator owns the mapping back to request indices.
type ShardRequest struct {
	// Shard names the shard (derived from its specs' fingerprints), for
	// logs and tracing.
	Shard   string              `json:"shard"`
	Specs   []consensus.RunSpec `json:"specs"`
	Workers int                 `json:"workers,omitempty"`
}

// ShardResponse is the worker's answer: one result per shard spec, in
// shard order. A result echoes neither its spec nor an index; the
// coordinator pairs results with the specs it sent by position, and
// cross-checks each fingerprint against its own before feeding the
// store.
type ShardResponse struct {
	Shard   string        `json:"shard"`
	Results []ShardResult `json:"results"`
}

// ShardResult is one shard spec's outcome as a worker computed it: the
// consensus.SweepResult fields that the spec does not determine. It
// carries exactly one of Summary and Err.
type ShardResult struct {
	Fingerprint string                `json:"fingerprint,omitempty"`
	Cached      bool                  `json:"cached"`
	Summary     *consensus.RunSummary `json:"summary,omitempty"`
	Err         string                `json:"error,omitempty"`
}

// RegisterRequest is the body of the coordinator's POST
// /api/v1/workers: a worker announcing its base URL (reprod -announce).
type RegisterRequest struct {
	URL string `json:"url"`
}

// RegisterResponse acknowledges a registration with the result of the
// immediate health probe.
type RegisterResponse struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Workers int    `json:"workers"`
}

// WorkerInfo is one worker's row in the coordinator status report.
type WorkerInfo struct {
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	InFlight    int    `json:"in_flight"`
	ShardsDone  uint64 `json:"shards_done"`
	ShardErrors uint64 `json:"shard_errors"`
}

// CoordinatorStatus is the coordinator's GET /api/v1/status payload:
// queue occupancy, per-worker in-flight counts, the content-addressed
// store's accounting, and dispatch counters. SpecsFromStore against
// SpecsServed (and ShardsDispatched across submissions) is how the CI
// smoke job verifies that a re-submitted sweep recomputes nothing.
type CoordinatorStatus struct {
	Workers       []WorkerInfo `json:"workers"`
	QueueDepth    int          `json:"queue_depth"`
	QueueCapacity int          `json:"queue_capacity"`
	InFlight      int          `json:"in_flight"`

	Store        consensus.SweepCacheCounters `json:"store"`
	StoreHitRate float64                      `json:"store_hit_rate"`

	Sweeps           uint64 `json:"sweeps"`
	SpecsServed      uint64 `json:"specs_served"`
	SpecsFromStore   uint64 `json:"specs_from_store"`
	SpecsComputed    uint64 `json:"specs_computed"`
	SpecsFailed      uint64 `json:"specs_failed"`
	ShardsDispatched uint64 `json:"shards_dispatched"`
	ShardRetries     uint64 `json:"shard_retries"`
	ShardFailures    uint64 `json:"shard_failures"`
	Rejected         uint64 `json:"rejected"`
	// FingerprintMismatches counts shard results whose worker-computed
	// fingerprint disagreed with the coordinator's — zero unless the
	// fleet is running mixed builds; mismatched results are passed
	// through but never stored.
	FingerprintMismatches uint64 `json:"fingerprint_mismatches"`
}

// WorkerStatus is the worker's GET /api/v1/status payload: the full
// single-process cache report plus the shard endpoint's counters.
type WorkerStatus struct {
	consensus.StatusReport
	Shards      uint64 `json:"shards"`
	ShardSpecs  uint64 `json:"shard_specs"`
	ShardErrors uint64 `json:"shard_errors"`
}
