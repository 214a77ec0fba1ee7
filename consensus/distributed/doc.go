// Package distributed shards the consensus query service across
// processes: a Coordinator splits sweep and scenario-grid requests into
// fingerprint-keyed shards, fans them out over HTTP to Worker processes
// (cmd/reprod -worker), streams partial results back to the client as
// shards complete, and merges through a content-addressed result store —
// so a re-submitted spec is a store hit anywhere in the fleet, not a
// recompute.
//
// The protocol rests on the repository's existing identities: every
// RunSpec resolves to a canonical content fingerprint (the hex SHA-256
// of the session's registry-independent configuration key, which embeds
// the schedule trace fingerprint for scenario runs), and two sessions
// with equal fingerprints produce bit-identical results on either
// execution path, any worker, any machine running the same build. That
// makes the merge trivial — results are position-independent values
// addressed by fingerprint — and makes distributed execution
// differentially testable against the single-process Sweep. A worker
// answers a shard with only what it computed (ShardResult: fingerprint,
// cached flag, summary or error); the coordinator attaches the spec and
// request index it already holds, so each merged result is written
// byte for byte as the single-process server writes it, cached flag
// aside.
//
// Topology:
//
//	client ──POST /api/v1/sweep (or /sweep/stream, SSE)──▶ Coordinator
//	                                                      │  store (content-addressed)
//	                                                      │  bounded shard queue (429 + Retry-After past capacity)
//	                                     ┌────────────────┼────────────────┐
//	                              POST /api/v1/shard      │ rendezvous-hashed by fingerprint,
//	                                     ▼                ▼ retried with backoff, rerouted on failure
//	                                  Worker 1  ...    Worker N   (reprod -worker: the full single-process
//	                                                               Server surface + the shard endpoint)
//
// Workers register themselves (POST /api/v1/workers, reprod -announce)
// or are pinned at startup; the coordinator health-checks them and
// routes around failures. GET /api/v1/status on either side reports
// queue depth, per-worker in-flight counts, and cache hit rates.
package distributed
