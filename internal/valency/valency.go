// Package valency estimates the valency of configurations of asymptotic
// consensus algorithms — the central concept of Section 3 of Függer,
// Nowak, Schwarz (PODC 2018).
//
// The valency Y*(C) of a configuration C in a network model N is the set
// of limits reachable from C, and δ(C) = diam(Y*(C)) is the quantity whose
// decay the paper's lower bounds control: an adversary that keeps
// δ(C_t) >= γ^t · δ(C_0) forces a contraction rate of at least γ.
//
// Y*(C) is not computable in general, so Engine computes certified
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
// endpoints carry the engine's tolerance.
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

// ReferenceInner is the naive recursive inner-bound walk of m under p:
// no memoization, no scratch arenas, no parallelism, one fresh
// configuration per tree edge. It is the differential-testing oracle for
// Engine.Inner, which must reproduce its intervals bit-identically.
// p.Workers is ignored.
func ReferenceInner(m *model.Model, p Params, c *core.Config) Interval {
	iv := emptyInterval()
	walkInner(m, p, c, p.Depth, &iv)
	return iv
}

func walkInner(m *model.Model, p Params, c *core.Config, depth int, acc *Interval) {
	for k := 0; k < m.Size(); k++ {
		g := m.Graph(k)
		if limit, ok := referenceLimitOfConstant(m, p, c, k); ok {
			*acc = acc.Union(Interval{Lo: limit, Hi: limit})
		}
		if depth > 0 {
			walkInner(m, p, c.Step(g), depth-1, acc)
		}
	}
}

func referenceLimitOfConstant(m *model.Model, p Params, c *core.Config, k int) (limit float64, ok bool) {
	g := m.Graph(k)
	cur := c
	for r := 0; r < p.Settle; r++ {
		if cur.Diameter() <= p.Tol {
			lo, hi := core.Hull(cur.Outputs())
			return (lo + hi) / 2, true
		}
		cur = cur.Step(g)
	}
	if cur.Diameter() <= p.Tol {
		lo, hi := core.Hull(cur.Outputs())
		return (lo + hi) / 2, true
	}
	return 0, false
}

// ReferenceOuter is the naive recursive outer-bound walk, the
// differential-testing oracle for Engine.Outer. Like Engine.Outer it
// panics unless p.Convex is set.
func ReferenceOuter(m *model.Model, p Params, c *core.Config) Interval {
	if !p.Convex {
		panic("valency: Outer bound requires a convex combination algorithm")
	}
	return walkOuter(m, c, p.Depth)
}

func walkOuter(m *model.Model, c *core.Config, depth int) Interval {
	if depth == 0 {
		lo, hi := core.Hull(c.Outputs())
		return Interval{Lo: lo, Hi: hi}
	}
	iv := emptyInterval()
	for k := 0; k < m.Size(); k++ {
		iv = iv.Union(walkOuter(m, c.Step(m.Graph(k)), depth-1))
	}
	return iv
}
