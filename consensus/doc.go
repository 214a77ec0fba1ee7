// Package consensus is the public facade of the repository: one session
// API, shared registries, and query helpers over the execution and
// analysis engines that implement Függer, Nowak, Schwarz, "Tight Bounds
// for Asymptotic and Approximate Consensus" (PODC 2018).
//
// Everything user-facing code needs is reachable from here; the engines
// themselves live under internal/ and are not part of the public API.
//
// # Sessions
//
// A Session is one configured execution: a network model, an algorithm,
// inputs, a pattern source (scheduler or adversary), and a round budget,
// all supplied as functional options:
//
//	s, err := consensus.New(
//		consensus.WithModel("deaf:4"),
//		consensus.WithAlgorithm("midpoint"),
//		consensus.WithAdversary("random"),
//		consensus.WithSeed(42),
//		consensus.WithRounds(12),
//	)
//	res, err := s.Run(ctx)            // full trace, context-cancellable
//	for snap, err := range s.Rounds(ctx) { ... } // streamed, no trace
//
// Run materializes the whole execution; Rounds streams one Snapshot per
// round without retaining history, so arbitrarily long executions run in
// constant memory. Sessions are stateless between runs (every Run starts
// from the initial inputs) and safe for concurrent use. A session runs on
// the dense struct-of-arrays kernel when its algorithm has one and its
// pattern source is oblivious, and on the per-agent reference path
// otherwise; the two are bit-identical, so there is nothing to select.
//
// # Registries
//
// The spec strings above resolve through four registries — Algorithms,
// Models, Adversaries, and Scenarios — which subsume the per-command
// string switches the repository previously carried. The registries are
// extensible at runtime (Register) and self-describing (Describe),
// which is what the query server's /api/v1/registry endpoint serves.
//
// # Scenarios
//
// A scenario (package repro/consensus/scenario) is a first-class
// round-by-round schedule of communication graphs. WithScenario pins a
// session to one — the run becomes an exact replay — and
// Session.RunRecorded captures any adversary-driven run as one. Scenario
// specs resolve through the Scenarios registry ("partitionheal:8,2,5",
// "churn:16,1,10,100,4", inline "trace:BASE64URL", ...), ride Sweep via
// RunSpec.Scenario (grids via ScenarioGrid, batched with per-run
// schedules, cached by trace fingerprint), and serve over HTTP via
// RunScenario and the /api/v1/scenario endpoint. cmd/scenario is the
// command-line face.
//
// # Batch and query APIs
//
// Sweep runs many sessions over a bounded worker pool, memoizing runs
// by fingerprint in a SweepCache (WithSweepCache; without one, within
// the call only); Solvability, ValencyBounds, DecisionSweep, AsyncRun,
// and VectorRun expose the analysis engines, the approximate-consensus
// deciders, the asynchronous crash-fault simulator, and the
// multidimensional lift. Experiments lists and runs
// the paper-reproduction registry consumed by cmd/paperbench.
//
// # Serving
//
// Server is an http.Handler exposing run, sweep, solvability, valency,
// async, scenario, and experiment queries as JSON endpoints with
// per-query timeouts. Each server holds one result cache, its sweep
// cache; cmd/reprod serves it.
package consensus
