// Package valency estimates the valency of configurations of asymptotic
// consensus algorithms — the central concept of Section 3 of Függer,
// Nowak, Schwarz (PODC 2018).
//
// The valency Y*(C) of a configuration C in a network model N is the set
// of limits reachable from C, and δ(C) = diam(Y*(C)) is the quantity whose
// decay the paper's lower bounds control: an adversary that keeps
// δ(C_t) >= γ^t · δ(C_0) forces a contraction rate of at least γ.
//
// Y*(C) is not computable in general, so the estimator computes certified
// interval bounds:
//
//   - Inner bound: limits of "eventually constant" continuations — play an
//     arbitrary pattern prefix from the execution tree, then repeat a
//     single model graph forever. Every such limit is, by definition, a
//     member of Y*(C), so the returned interval's endpoints are genuine
//     reachable limits (up to the configured numerical tolerance) and its
//     diameter is a sound lower bound on δ(C).
//   - Outer bound: the union over all depth-k reachable configurations of
//     the convex hulls of their value vectors. For convex combination
//     algorithms every limit reachable from a configuration lies in that
//     configuration's hull (by Validity applied to the suffix execution),
//     so the union is a superset of Y*(C) and its diameter a sound upper
//     bound on δ(C). For non-convex algorithms the outer bound is
//     unavailable.
//
// Both bounds tighten as Depth grows; the exploration is exhaustive over
// the |N|^Depth pattern prefixes, mirroring the execution-tree branching
// arguments (Lemmas 4 and 5) of the paper.
package valency

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/model"
)

// Interval is a closed real interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Empty reports whether the interval is the canonical empty interval
// (Lo > Hi).
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Diameter returns Hi - Lo, or 0 for empty intervals.
func (iv Interval) Diameter() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Union returns the smallest interval containing both.
func (iv Interval) Union(other Interval) Interval {
	if iv.Empty() {
		return other
	}
	if other.Empty() {
		return iv
	}
	return Interval{Lo: math.Min(iv.Lo, other.Lo), Hi: math.Max(iv.Hi, other.Hi)}
}

// Intersects reports whether the intervals share a point.
func (iv Interval) Intersects(other Interval) bool {
	if iv.Empty() || other.Empty() {
		return false
	}
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return !iv.Empty() && iv.Lo <= x && x <= iv.Hi }

// Expand returns the interval widened by eps on both sides. It is the
// standard slack for comparing numerically estimated valencies whose
// endpoints carry the estimator's tolerance.
func (iv Interval) Expand(eps float64) Interval {
	if iv.Empty() {
		return iv
	}
	return Interval{Lo: iv.Lo - eps, Hi: iv.Hi + eps}
}

// String renders the interval.
func (iv Interval) String() string {
	if iv.Empty() {
		return "∅"
	}
	return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi)
}

// emptyInterval is the canonical empty interval.
func emptyInterval() Interval { return Interval{Lo: math.Inf(1), Hi: math.Inf(-1)} }

// Estimator computes valency bounds for configurations under a network
// model. It is a thin wrapper around Engine, kept for API stability: the
// exploration itself is memoized, allocation-free, and parallel (see
// Engine). The zero value is not usable; use NewEstimator, which binds a
// persistent engine whose transposition tables survive across calls — the
// cross-round reuse the greedy adversaries depend on.
//
// An Estimator built as a plain struct literal still works: every call
// then runs on a fresh engine (memoization still collapses the tree
// within the call, but nothing carries over between calls).
type Estimator struct {
	// Model is the network model N.
	Model *model.Model
	// Depth is the exhaustive exploration depth of the execution tree.
	// Cost is O(|N|^Depth) before memoization, so keep Depth*log|N|
	// modest.
	Depth int
	// Settle caps the number of rounds a constant-graph continuation is
	// run when hunting for its limit.
	Settle int
	// Tol is the diameter below which a continuation counts as converged;
	// the returned limit estimate then errs by at most Tol.
	Tol float64
	// Convex asserts the algorithm under analysis is a convex combination
	// algorithm, enabling the outer bound.
	Convex bool

	eng *Engine
}

// NewEstimator returns an estimator with sensible defaults: the given
// depth, Settle = 512, Tol = 1e-9, and a persistent engine using all CPUs.
func NewEstimator(m *model.Model, depth int, convex bool) Estimator {
	e := Estimator{Model: m, Depth: depth, Settle: 512, Tol: 1e-9, Convex: convex}
	e.eng = NewEngine(m, e.params())
	return e
}

func (e Estimator) params() Params {
	return Params{Depth: e.Depth, Settle: e.Settle, Tol: e.Tol, Convex: e.Convex}
}

// EstimatorFromEngine returns an estimator bound to an existing engine,
// inheriting its model and parameters. It is how callers that pool
// engines (e.g. the public consensus facade, which shares one engine per
// model/algorithm/depth across sessions) hand the paper's adversaries an
// estimator whose transposition tables are the shared ones.
func EstimatorFromEngine(eng *Engine) Estimator {
	p := eng.Params()
	return Estimator{
		Model:  eng.Model(),
		Depth:  p.Depth,
		Settle: p.Settle,
		Tol:    p.Tol,
		Convex: p.Convex,
		eng:    eng,
	}
}

// Engine returns the engine backing the estimator. When the estimator was
// built by NewEstimator or EstimatorFromEngine and its fields were not
// mutated afterwards, the bound persistent engine is returned; otherwise a
// fresh engine matching the current field values is created. The bound
// engine's Workers is not compared: the estimator has no such field, and
// results do not depend on it.
func (e Estimator) Engine() *Engine {
	if e.eng != nil && e.eng.model == e.Model {
		p := e.eng.params
		p.Workers = 0
		if p == e.params() {
			return e.eng
		}
	}
	return NewEngine(e.Model, e.params())
}

// Inner returns the inner valency bound: an interval spanned by genuine
// members of Y*(C). Its diameter is a sound lower bound on δ(C).
func (e Estimator) Inner(c *core.Config) Interval { return e.Engine().Inner(c) }

// LimitOfConstant runs the continuation that repeats model graph k forever
// from c and returns the (approximate) common limit. ok is false when the
// continuation did not contract below Tol within Settle rounds (e.g. the
// constant graph does not drive the algorithm to consensus).
func (e Estimator) LimitOfConstant(c *core.Config, k int) (limit float64, ok bool) {
	return e.Engine().LimitOfConstant(c, k)
}

// Outer returns the outer valency bound for convex combination algorithms:
// an interval provably containing Y*(C). It panics when the estimator was
// not constructed for a convex algorithm, because the hull argument is
// unsound then.
func (e Estimator) Outer(c *core.Config) Interval { return e.Engine().Outer(c) }

// DeltaLower returns a sound lower bound on δ(C) = diam(Y*(C)).
func (e Estimator) DeltaLower(c *core.Config) float64 { return e.Inner(c).Diameter() }

// DeltaUpper returns a sound upper bound on δ(C) for convex algorithms.
func (e Estimator) DeltaUpper(c *core.Config) float64 { return e.Outer(c).Diameter() }

// SuccessorInners returns, for each model graph G, the inner valency bound
// of the successor configuration G.C — the branching data the paper's
// greedy adversaries (proofs of Theorems 1, 2, 5) act on.
func (e Estimator) SuccessorInners(c *core.Config) []Interval {
	return e.Engine().SuccessorInners(c)
}

// ReferenceInner is the original naive recursive inner-bound walk: no
// memoization, no scratch arenas, no parallelism, one fresh configuration
// per tree edge. It is retained verbatim as the differential-testing
// oracle for Engine — the engine must reproduce its intervals
// bit-identically.
func (e Estimator) ReferenceInner(c *core.Config) Interval {
	iv := emptyInterval()
	e.walkInner(c, e.Depth, &iv)
	return iv
}

func (e Estimator) walkInner(c *core.Config, depth int, acc *Interval) {
	for k := 0; k < e.Model.Size(); k++ {
		g := e.Model.Graph(k)
		if limit, ok := e.referenceLimitOfConstant(c, k); ok {
			*acc = acc.Union(Interval{Lo: limit, Hi: limit})
		}
		if depth > 0 {
			e.walkInner(c.Step(g), depth-1, acc)
		}
	}
}

func (e Estimator) referenceLimitOfConstant(c *core.Config, k int) (limit float64, ok bool) {
	g := e.Model.Graph(k)
	cur := c
	for r := 0; r < e.Settle; r++ {
		if cur.Diameter() <= e.Tol {
			lo, hi := core.Hull(cur.Outputs())
			return (lo + hi) / 2, true
		}
		cur = cur.Step(g)
	}
	if cur.Diameter() <= e.Tol {
		lo, hi := core.Hull(cur.Outputs())
		return (lo + hi) / 2, true
	}
	return 0, false
}

// ReferenceOuter is the original naive recursive outer-bound walk, the
// differential-testing oracle for Engine.Outer.
func (e Estimator) ReferenceOuter(c *core.Config) Interval {
	if !e.Convex {
		panic("valency: Outer bound requires a convex combination algorithm")
	}
	return e.walkOuter(c, e.Depth)
}

func (e Estimator) walkOuter(c *core.Config, depth int) Interval {
	if depth == 0 {
		lo, hi := core.Hull(c.Outputs())
		return Interval{Lo: lo, Hi: hi}
	}
	iv := emptyInterval()
	for k := 0; k < e.Model.Size(); k++ {
		iv = iv.Union(e.walkOuter(c.Step(e.Model.Graph(k)), depth-1))
	}
	return iv
}
