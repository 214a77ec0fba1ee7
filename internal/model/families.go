package model

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// This file provides the named network models the paper's table rows are
// stated for.

// TwoAgent returns the model {H0, H1, H2}: all rooted two-agent graphs
// (Figure 1). It is the weakest two-agent model in which asymptotic
// consensus is solvable; Theorem 1 proves the 1/3 contraction bound on it.
func TwoAgent() *Model {
	return MustNew(graph.HFamily()...)
}

// DeafModel returns the model deaf(g) = {F_1, ..., F_n} (Section 5).
// Theorem 2 proves the 1/2 contraction bound for every model containing
// it; for g = K_n it is a sub-model of the all-non-split model.
func DeafModel(g graph.Graph) *Model {
	return MustNew(graph.DeafFamily(g)...)
}

// PsiModel returns the model {Psi_0, Psi_1, Psi_2} on n >= 4 nodes
// (Figure 2), the carrier of the Theorem 3 rooted-model bound.
func PsiModel(n int) *Model {
	return MustNew(graph.PsiFamily(n)...)
}

// AllRooted returns the model of all rooted graphs on n nodes — the
// weakest model in which asymptotic consensus is solvable. Enumeration is
// exponential, so this is available only for small n (see
// graph.EnumerateRooted).
func AllRooted(n int) (*Model, error) {
	gs, err := graph.EnumerateRooted(n)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return New(gs...)
}

// AllNonSplit returns the model of all non-split graphs on n nodes, for
// small n.
func AllNonSplit(n int) (*Model, error) {
	gs, err := graph.EnumerateNonSplit(n)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return New(gs...)
}

// AsyncChain returns a finite, alpha-connected sub-model of the
// asynchronous-round model N_A(n, f) = {G : min in-degree >= n-f}. It
// contains the complete graph, every silenced-block graph K_0..K_{q-1}
// (q = ⌈n/f⌉), and the Lemma 24 mixture chains joining the complete graph
// to K_0 and each K_r to K_{r+1}. The chain witnesses are silenced-block
// graphs and hence themselves members, so the whole model is
// alpha*-connected and its alpha-diameter is finite (though in general
// larger than the ⌈n/f⌉ the lemma certifies for the full N_A — the
// experiments report both).
//
// Every member has min in-degree >= n-f, so every execution of this
// sub-model is a legal round-based asynchronous execution with up to f
// crashes (Section 8.1), and contraction lower bounds computed for it
// apply to round-based algorithms per Theorem 6's argument.
//
// The model has q²+1 members (q² for f = 1: the first chain's first
// mixture is the complete graph again), so it is available only while
// that is at most maxMembers (asyncchain:64,1 is exactly at the cap);
// larger requests are refused before any graph is built.
func AsyncChain(n, f int) (*Model, error) {
	if f < 1 || 2*f >= n {
		return nil, fmt.Errorf("model: AsyncChain requires 0 < f < n/2, got n=%d f=%d", n, f)
	}
	q := graph.NumBlocks(n, f)
	// The q+1 anchors and the q-1 inner mixtures of each of the q chains
	// are pairwise distinct, except the f = 1 duplicate noted above; the
	// witnesses are the anchors again.
	members := q*q + 1
	if f == 1 {
		members--
	}
	if members > maxMembers {
		return nil, fmt.Errorf("model: AsyncChain(%d,%d) has %d members, more than %d", n, f, members, maxMembers)
	}
	anchors := make([]graph.Graph, 0, q+1)
	anchors = append(anchors, graph.Complete(n))
	for r := 0; r < q; r++ {
		anchors = append(anchors, graph.SilenceBlock(n, f, r))
	}
	var all []graph.Graph
	all = append(all, anchors...)
	for i := 0; i+1 < len(anchors); i++ {
		hs, ks, err := graph.Lemma24Chain(anchors[i], anchors[i+1], f)
		if err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
		all = append(all, hs...)
		all = append(all, ks...)
	}
	return New(all...)
}

// maxMembers caps the member count of the enumerated model families
// (AsyncChain, FullAsyncRound).
const maxMembers = 4096

// FullAsyncRound returns the complete asynchronous-round model N_A(n, f):
// every communication graph with minimum in-degree >= n-f. The member
// count is (sum_{k<=f} C(n-1,k))^n, so this is only available when that
// count is at most maxMembers (e.g. n=4 f=1: 256 graphs; n=5 f=1: 3125);
// the count is checked before anything is enumerated. For these models
// Lemma 24 gives alpha-diameter <= ⌈n/f⌉ and Theorem 6 the 1/(⌈n/f⌉+1)
// round-based contraction bound; the exact diameter is computed, not
// assumed.
func FullAsyncRound(n, f int) (*Model, error) {
	if f < 1 || f >= n {
		return nil, fmt.Errorf("model: FullAsyncRound requires 0 < f < n, got n=%d f=%d", n, f)
	}
	// Each node independently fails to hear at most f of the n-1 others:
	// choices = sum_{k<=f} C(n-1,k) per node, choices^n members. Both
	// loops stop as soon as a partial count passes the cap.
	choices, binom := 0, 1 // binom = C(n-1, k)
	for k := 0; k <= f && choices <= maxMembers; k++ {
		choices += binom
		binom = binom * (n - 1 - k) / (k + 1)
	}
	total := 1
	for i := 0; i < n && total <= maxMembers; i++ {
		total *= choices
	}
	if choices > maxMembers || total > maxMembers {
		return nil, fmt.Errorf("model: FullAsyncRound(%d,%d) would enumerate more than %d graphs", n, f, maxMembers)
	}
	// Per node i: the legal sets of senders i may fail to hear — at most f
	// of them, never i itself. choices^n <= maxMembers with choices >= n
	// keeps n tiny here, so 1<<n cannot overflow.
	perNode := make([][]uint64, n)
	limit := uint64(1) << uint(n)
	for i := 0; i < n; i++ {
		for m := uint64(0); m < limit; m++ {
			if bits.OnesCount64(m) <= f && m&(1<<uint(i)) == 0 {
				perNode[i] = append(perNode[i], m)
			}
		}
	}
	choice := make([]int, n)
	gs := make([]graph.Graph, 0, total)
	for {
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.SetInRow(i, []uint64{^perNode[i][choice[i]]})
		}
		gs = append(gs, b.Graph())
		pos := 0
		for pos < n {
			choice[pos]++
			if choice[pos] < len(perNode[pos]) {
				break
			}
			choice[pos] = 0
			pos++
		}
		if pos == n {
			break
		}
	}
	return New(gs...)
}

// SilencedBlocks returns the model {K_0, ..., K_{q-1}} of all
// silenced-block graphs for the given n and f. It is a sub-model of
// N_A(n, f) whose graphs' root sets cover-complement [n], making every
// all-in-one beta-class source-incompatible.
func SilencedBlocks(n, f int) (*Model, error) {
	if f < 1 || f >= n {
		return nil, fmt.Errorf("model: SilencedBlocks requires 0 < f < n, got n=%d f=%d", n, f)
	}
	q := graph.NumBlocks(n, f)
	gs := make([]graph.Graph, q)
	for r := 0; r < q; r++ {
		gs[r] = graph.SilenceBlock(n, f, r)
	}
	return New(gs...)
}
