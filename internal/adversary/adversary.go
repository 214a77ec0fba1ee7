// Package adversary implements the worst-case pattern constructions from
// the lower-bound proofs of Függer, Nowak, Schwarz (PODC 2018).
//
// The proofs of Theorems 1, 2 and 5 all share one skeleton: from the
// current configuration C, some successor G.C must retain a valency
// diameter of at least δ(C)/(q+1) (where q+1 is 3, 2, and D+1
// respectively), because the successor valencies cover Y*(C) (Lemma 4)
// and pairwise intersect along an indistinguishability chain (Lemmas 7
// and 20). The adversary that always moves to the successor with the
// largest valency diameter therefore maintains δ(C_t) >= δ(C_0)/(q+1)^t.
//
// Greedy is that adversary, instantiated with the valency estimator's
// sound inner bounds: it maximizes a certified lower bound on δ(G.C), so
// every decay floor it exhibits is genuine. BlockGreedy is the Theorem 3
// variant that plays whole σ_i blocks of n-2 Ψ_i graphs between decisions,
// following the proof's generalization from graph choices to sequence
// choices (Section 6.1).
package adversary

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/valency"
)

// Greedy is a core.PatternSource that, in every round, plays the model
// graph whose successor configuration has the largest certified (inner)
// valency diameter, breaking ties toward the lowest model index for
// determinism. When every successor's inner bound is zero (estimator too
// coarse to witness any spread), it falls back to maximizing the plain
// value diameter of the successor.
type Greedy struct {
	// Est provides the model and the valency bounds.
	Est valency.Estimator
	// Trace, if non-nil, receives one record per decision.
	Trace *[]Decision
}

// Decision records one greedy adversary choice.
type Decision struct {
	Round  int
	Chosen int // model index of the graph played
	// Inner[k] is the inner valency interval of successor k.
	Inner []valency.Interval
}

// Next implements core.PatternSource. The valency exploration runs on the
// estimator's persistent engine, and the next round's successors are this
// round's level-2 nodes: when the next call re-explores the chosen
// successor's subtree, the constant-graph settles that ranking the
// candidates here ran — with the memo lookups, most of the cost — are
// served from the depth-independent limit table, and the limits passed
// down the walk are passed down again. (Inner-table entries are keyed by
// remaining depth, so the deeper re-exploration misses those.)
func (a *Greedy) Next(round int, c *core.Config) graph.Graph {
	m := a.Est.Model
	eng := a.Est.Engine()
	inners := eng.SuccessorInners(c)
	best, bestDiam := 0, -1.0
	for k, iv := range inners {
		if d := iv.Diameter(); d > bestDiam {
			best, bestDiam = k, d
		}
	}
	if bestDiam <= 0 {
		// Fallback: maximize the successor's value diameter, computed on
		// the engine's scratch arena — no per-candidate configuration is
		// materialized.
		for k, d := range eng.SuccessorValueDiameters(c) {
			if d > bestDiam {
				best, bestDiam = k, d
			}
		}
	}
	if a.Trace != nil {
		*a.Trace = append(*a.Trace, Decision{Round: round, Chosen: best, Inner: inners})
	}
	return m.Graph(best)
}

// BlockGreedy is the Theorem 3 adversary: it decides once per block of
// Len rounds, choosing among the given graph blocks (typically the three
// σ_i = Ψ_i^(n-2) sequences) the one whose end-of-block configuration has
// the largest inner valency diameter, then plays that block out.
type BlockGreedy struct {
	// Est provides valency bounds; its model must contain every graph
	// appearing in Blocks.
	Est valency.Estimator
	// Blocks are the candidate graph sequences; all must have equal,
	// positive length.
	Blocks [][]graph.Graph

	pending []graph.Graph
	scratch *core.Config
}

// NewBlockGreedy validates the blocks and returns the adversary.
func NewBlockGreedy(est valency.Estimator, blocks [][]graph.Graph) (*BlockGreedy, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("adversary: no blocks")
	}
	length := len(blocks[0])
	if length == 0 {
		return nil, fmt.Errorf("adversary: empty block")
	}
	for _, b := range blocks {
		if len(b) != length {
			return nil, fmt.Errorf("adversary: ragged block lengths %d vs %d", len(b), length)
		}
		for _, g := range b {
			if !est.Model.Contains(g) {
				return nil, fmt.Errorf("adversary: block graph %v not in estimator model", g)
			}
		}
	}
	return &BlockGreedy{Est: est, Blocks: blocks}, nil
}

// BlockLen returns the common block length.
func (a *BlockGreedy) BlockLen() int { return len(a.Blocks[0]) }

// Next implements core.PatternSource. Candidate blocks are played out on
// a reused scratch configuration, and the end-of-block valencies come
// from the estimator's persistent engine, whose caches carry the chosen
// block's exploration into the next decision.
func (a *BlockGreedy) Next(round int, c *core.Config) graph.Graph {
	if len(a.pending) == 0 {
		eng := a.Est.Engine()
		if a.scratch == nil {
			a.scratch = &core.Config{}
		}
		playBlock := func(block []graph.Graph) *core.Config {
			end := a.scratch
			c.StepInto(end, block[0])
			for _, g := range block[1:] {
				end.StepInPlace(g)
			}
			return end
		}
		best, bestDiam := 0, -1.0
		for k, block := range a.Blocks {
			if d := eng.Inner(playBlock(block)).Diameter(); d > bestDiam {
				best, bestDiam = k, d
			}
		}
		if bestDiam <= 0 {
			for k, block := range a.Blocks {
				if d := playBlock(block).Diameter(); d > bestDiam {
					best, bestDiam = k, d
				}
			}
		}
		a.pending = append(a.pending[:0], a.Blocks[best]...)
	}
	g := a.pending[0]
	a.pending = a.pending[1:]
	return g
}

// SigmaBlocks returns the three σ_i blocks of Theorem 3 for n agents.
func SigmaBlocks(n int) [][]graph.Graph {
	return [][]graph.Graph{
		graph.SigmaBlock(n, 0),
		graph.SigmaBlock(n, 1),
		graph.SigmaBlock(n, 2),
	}
}
