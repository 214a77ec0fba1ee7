// Package approx implements the approximate consensus problem of
// Section 9 of Függer, Nowak, Schwarz (PODC 2018): agents must
// irrevocably decide values within ε of each other, inside the convex
// hull of the initial values, knowing an a-priori bound Δ on the initial
// diameter.
//
// The package provides the run-then-decide reduction from the paper's
// asymptotic consensus algorithms (Decider and Decide: run for
// ⌈log_{1/γ}(Δ/ε)⌉ rounds, then decide the current outputs), together
// with the decision-time lower-bound formulas of Theorems 8-11 it is
// matched against.
package approx

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// DecisionRounds returns ⌈log_{1/contraction}(Δ/ε)⌉, the number of rounds
// after which an algorithm with the given per-round contraction factor has
// certainly shrunk an initial diameter of at most delta below eps. It
// panics for nonsensical parameters.
func DecisionRounds(contraction, delta, eps float64) int {
	if contraction <= 0 || contraction >= 1 {
		panic(fmt.Sprintf("approx: contraction %v outside (0,1)", contraction))
	}
	if delta <= 0 || eps <= 0 {
		panic(fmt.Sprintf("approx: delta %v and eps %v must be positive", delta, eps))
	}
	if eps >= delta {
		return 0
	}
	// ⌈log(Δ/ε) / log(1/γ)⌉ with care at exact integer boundaries.
	r := math.Log(delta/eps) / math.Log(1/contraction)
	k := int(math.Ceil(r - 1e-12))
	if k < 0 {
		k = 0
	}
	return k
}

// Theorem8LowerBound returns the n = 2 decision-time lower bound
// log_3(Δ/ε) for models containing {H0, H1, H2}.
func Theorem8LowerBound(delta, eps float64) float64 {
	return math.Log(delta/eps) / math.Log(3)
}

// Theorem9LowerBound returns the n >= 3 decision-time lower bound
// log_2(Δ/ε) for models containing deaf(G).
func Theorem9LowerBound(delta, eps float64) float64 {
	return math.Log2(delta / eps)
}

// Theorem10LowerBound returns the rooted-model decision-time lower bound
// (n-2)·log_2(Δ/ε) for models containing the Ψ graphs.
func Theorem10LowerBound(n int, delta, eps float64) float64 {
	return float64(n-2) * math.Log2(delta/eps)
}

// Theorem11LowerBound returns the generic decision-time lower bound
// log_{D+1}(Δ/(εn)) for models with alpha-diameter D in which exact
// consensus is not solvable.
func Theorem11LowerBound(d int, n int, delta, eps float64) float64 {
	arg := delta / (eps * float64(n))
	if arg <= 1 {
		return 0
	}
	return math.Log(arg) / math.Log(float64(d+1))
}

// Result reports one approximate-consensus run.
type Result struct {
	// DecisionRound is the round at which all agents decided.
	DecisionRound int
	// Decisions holds the decided values.
	Decisions []float64
	// Spread is the diameter of the decisions.
	Spread float64
	// EpsAgreement reports whether Spread <= eps (+ floating-point slack).
	EpsAgreement bool
	// Validity reports whether all decisions lie in the initial hull.
	Validity bool
}

// Decider runs an asymptotic consensus algorithm for a fixed number of
// rounds and decides the then-current outputs — the reduction the paper
// uses in both directions between asymptotic and approximate consensus.
type Decider struct {
	// Alg is the underlying asymptotic consensus algorithm.
	Alg core.Algorithm
	// Contraction is the per-round contraction factor the algorithm
	// guarantees in the target model (1/3 for two-thirds in {H_k}; 1/2 for
	// midpoint in non-split models; (1/2)^(1/(n-1)) for the amortized
	// midpoint in rooted models).
	Contraction float64
}

// Rounds returns the decision round for the given Δ and ε.
func (d Decider) Rounds(delta, eps float64) int {
	return DecisionRounds(d.Contraction, delta, eps)
}

// Run executes the decider on the given inputs against the pattern source
// and returns the outcome. delta must upper-bound the initial diameter,
// matching the problem statement where agents receive Δ as input.
func (d Decider) Run(inputs []float64, src core.PatternSource, delta, eps float64) Result {
	if got := core.Diameter(inputs); got > delta {
		panic(fmt.Sprintf("approx: initial diameter %v exceeds declared delta %v", got, delta))
	}
	rounds := d.Rounds(delta, eps)
	tr := core.Run(d.Alg, inputs, src, rounds)
	return Decide(inputs, tr.Outputs[rounds], rounds, eps)
}

// Decide judges the decisions taken at the given round of a run from
// inputs: their spread against eps, and validity against the inputs'
// hull, both with floating-point slack.
func Decide(inputs, decisions []float64, round int, eps float64) Result {
	spread := core.Diameter(decisions)
	lo, hi := core.Hull(inputs)
	validity := true
	for _, v := range decisions {
		if v < lo-1e-9 || v > hi+1e-9 {
			validity = false
		}
	}
	return Result{
		DecisionRound: round,
		Decisions:     decisions,
		Spread:        spread,
		EpsAgreement:  spread <= eps*(1+1e-9),
		Validity:      validity,
	}
}
