// Package repro is a Go reproduction of Függer, Nowak, Schwarz, "Tight
// Bounds for Asymptotic and Approximate Consensus" (PODC 2018,
// arXiv:1705.02898): the averaging algorithms that achieve the paper's
// upper bounds, the valency machinery and adversaries behind its lower
// bounds, the Coulouma-Godard-Peters solvability theory it builds on, and
// the asynchronous crash-fault system of its classical corollaries.
//
// The root package carries only documentation and the repository-level
// benchmarks. The PUBLIC API is package consensus — the facade every
// user-facing tool drives the engines through: a functional-options
// session API (New/Run/Rounds), shared registries for algorithms,
// models, adversaries, and scenarios, batch sweeps with
// fingerprint-keyed caching, query helpers (Solvability, ValencyBounds,
// DecisionSweep, AsyncRun, VectorRun, RunScenario, Experiments), and an
// embeddable HTTP query server.
//
// The engines live under internal/ (see README.md for the architecture
// and DESIGN.md for the paper-to-package map):
//
//	consensus            the public facade: sessions, registries, sweeps,
//	                     queries, and the JSON query server
//	consensus/scenario   public dynamic-network schedules: generators,
//	                     recording, binary traces, property certification
//	internal/graph       communication graphs and the paper's graph families
//	internal/model       network models, alpha/beta machinery, solvability
//	internal/core        the round-based dynamic-network execution model
//	internal/algorithms  two-thirds, midpoint, amortized midpoint, quantized
//	                     midpoint, mean, flow-sum, flood-root
//	internal/valency     certified inner/outer bounds on valencies Y*(C)
//	internal/adversary   the lower-bound pattern constructions
//	internal/approx      approximate consensus: deciders and time bounds
//	internal/async       asynchronous message passing with unclean crashes
//	internal/vector      coordinate-wise lift to d-dimensional values
//	internal/scenario    the binary trace codec for schedules
//	internal/exp         the experiment registry regenerating every table
//	                     and figure of the paper
//
// Entry points (all thin shells over package consensus): cmd/reprod
// serves the JSON query API, cmd/paperbench regenerates the paper's
// results, cmd/solvability analyzes arbitrary models, cmd/contraction
// races algorithms against adversaries, cmd/scenario records,
// certifies, and replays dynamic-network schedules, cmd/asyncsim drives
// the crash-fault simulator, and cmd/decision sweeps
// approximate-consensus tolerances.
package repro
