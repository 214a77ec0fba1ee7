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
//     member of Y*(C). Where the repeated graph is rooted at one agent r
//     that hears only itself and the algorithm declares
//     core.SelfRootKeeper, the limit is y_r, exact: r keeps its value
//     and the constant rooted continuation converges. Every other limit
//     is settled: the continuation runs until its outputs span at most
//     Tol, and its hull midpoint stands for the limit, within Tol/2. So
//     the returned interval's endpoints are genuine reachable limits, up
//     to Tol/2 where settled, and its diameter is a lower bound on δ(C),
//     sound where both endpoints come in closed form.
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
	"repro/internal/graph"
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

// Union returns the smallest interval containing both. Its core.Fmin and
// core.Fmax are bit-identical to math.Min and math.Max and, unlike them,
// inline.
func (iv Interval) Union(other Interval) Interval {
	if iv.Empty() {
		return other
	}
	if other.Empty() {
		return iv
	}
	return Interval{Lo: core.Fmin(iv.Lo, other.Lo), Hi: core.Fmax(iv.Hi, other.Hi)}
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
// no memoization, no scratch arenas, one fresh configuration per tree
// edge. It is the differential-testing oracle for Engine.Inner, which
// must reproduce its intervals bit-identically: it takes a
// constant-graph limit in closed form wherever the engine does.
func ReferenceInner(m *model.Model, p Params, c *core.Config) Interval {
	iv := emptyInterval()
	walkInner(m, p, selfRoots(m), selfRootKeeper(c), c, p.Depth, &iv)
	return iv
}

func walkInner(m *model.Model, p Params, roots []int, keeper core.SelfRootKeeper, c *core.Config, depth int, acc *Interval) {
	for k := 0; k < m.Size(); k++ {
		g := m.Graph(k)
		if limit, ok := referenceLimitOfConstant(p, roots[k], keeper, c, g); ok {
			*acc = acc.Union(Interval{Lo: limit, Hi: limit})
		}
		if depth > 0 {
			walkInner(m, p, roots, keeper, c.Step(g), depth-1, acc)
		}
	}
}

func referenceLimitOfConstant(p Params, root int, keeper core.SelfRootKeeper, c *core.Config, g graph.Graph) (limit float64, ok bool) {
	if limit, ok := selfRootLimit(keeper, root, c); ok {
		return limit, true
	}
	cur := c
	for r := 0; r < p.Settle; r++ {
		if cur.Diameter() <= p.Tol {
			return hullMidpoint(core.Hull(cur.Outputs())), true
		}
		cur = cur.Step(g)
	}
	if cur.Diameter() <= p.Tol {
		return hullMidpoint(core.Hull(cur.Outputs())), true
	}
	return 0, false
}

// hullMidpoint is the limit a settle reports for a converged hull
// [lo, hi]: (lo+hi)/2, or lo/2 + hi/2 where the sum overflows, so a
// continuation that converges near ±MaxFloat64 has a finite limit. The
// fallback runs only where the sum is infinite, so no finite midpoint
// changes.
func hullMidpoint(lo, hi float64) float64 {
	if m := (lo + hi) / 2; !math.IsInf(m, 0) {
		return m
	}
	return lo/2 + hi/2
}

// selfRoots returns, for each graph of m, the agent that hears only
// itself when the graph is rooted, or -1. Such an agent r is the graph's
// only root: its component {r} hears no other, so it is a root component,
// and a rooted graph has exactly one.
func selfRoots(m *model.Model) []int {
	roots := make([]int, m.Size())
	for k := range roots {
		roots[k] = -1
		g := m.Graph(k)
		for r := 0; r < g.N(); r++ {
			if g.IsDeaf(r) {
				if g.IsRooted() {
					roots[k] = r
				}
				break
			}
		}
	}
	return roots
}

// selfRootKeeper returns the closed-form capability of c's algorithm, or
// nil when it does not declare one. A query resolves it once, at its top.
func selfRootKeeper(c *core.Config) core.SelfRootKeeper {
	keeper, _ := c.Algorithm().(core.SelfRootKeeper)
	return keeper
}

// selfRootLimit is the closed form of the limit of repeating a graph with
// self root r (see selfRoots) from c: the output of r, which keeps it
// while every other agent converges to it. ok is false when r is -1,
// keeper is nil, or keeper does not keep r's output; the limit is then
// settled.
//
// The closed form is taken whenever keeper keeps y_r, also where the
// float settle would fail: at large magnitudes the hearing agents can
// stall one ulp from y_r, more than Tol apart, while the real-arithmetic
// limit, the one Y*(C) is defined by, is y_r.
func selfRootLimit(keeper core.SelfRootKeeper, r int, c *core.Config) (float64, bool) {
	if keeper == nil || r < 0 {
		return 0, false
	}
	y := c.Output(r)
	return y, keeper.SelfRootKeeps(y)
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
