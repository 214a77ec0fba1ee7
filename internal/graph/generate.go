package graph

import (
	"fmt"
	"math/rand"
)

// This file enumerates and samples communication graphs. Enumeration is
// exponential in n*(n-1) and is only offered for very small n, where the
// solvability machinery and the valency explorer need exhaustive sets.

// maxEnumerateNodes bounds exhaustive enumeration: n=4 already yields
// 2^12 = 4096 graphs; n=5 would yield 2^20, which is still tractable but
// pointless for the experiments, so we stop there.
const maxEnumerateNodes = 5

// EnumerateAll returns every communication graph on n nodes (self-loops
// mandatory), in a deterministic order. It returns an error for n above
// the enumeration cap.
func EnumerateAll(n int) ([]Graph, error) {
	checkN(n)
	if n > maxEnumerateNodes {
		return nil, fmt.Errorf("graph: refusing to enumerate 2^%d graphs (n=%d > %d)",
			n*(n-1), n, maxEnumerateNodes)
	}
	free := n - 1 // free bits per node (all but the self-loop)
	total := 1
	for i := 0; i < n*free; i++ {
		total *= 2
	}
	graphs := make([]Graph, 0, total)
	masks := make([]uint64, n)
	// Iterate a single code over all n*(n-1) optional edge bits.
	for code := 0; code < total; code++ {
		c := code
		for i := 0; i < n; i++ {
			m := uint64(1) << uint(i)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if c&1 == 1 {
					m |= 1 << uint(j)
				}
				c >>= 1
			}
			masks[i] = m
		}
		in := make([]uint64, n)
		copy(in, masks)
		graphs = append(graphs, Graph{n: n, in: in})
	}
	return graphs, nil
}

// EnumerateRooted returns every rooted graph on n nodes. For n = 2 this is
// exactly {H0, H1, H2} up to ordering.
func EnumerateRooted(n int) ([]Graph, error) {
	all, err := EnumerateAll(n)
	if err != nil {
		return nil, err
	}
	var rooted []Graph
	for _, g := range all {
		if g.IsRooted() {
			rooted = append(rooted, g)
		}
	}
	return rooted, nil
}

// EnumerateNonSplit returns every non-split graph on n nodes.
func EnumerateNonSplit(n int) ([]Graph, error) {
	all, err := EnumerateAll(n)
	if err != nil {
		return nil, err
	}
	var ns []Graph
	for _, g := range all {
		if g.IsNonSplit() {
			ns = append(ns, g)
		}
	}
	return ns, nil
}

// Random returns a graph on n nodes in which each non-self-loop edge is
// present independently with probability p.
func Random(rng *rand.Rand, n int, p float64) Graph {
	checkN(n)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				b.Edge(i, j)
			}
		}
	}
	return b.Graph()
}

// rootedCoinBudget bounds the edge coins one RandomRooted call draws: 2^20
// coins are 2^19 samples at n = 2 and 2 at n = 1024. A p under which
// rooted samples are likely needs far fewer.
const rootedCoinBudget = 1 << 20

// RandomRooted returns a random rooted graph on n nodes. It samples
// Random(n, p) until the result is rooted; for p >= 1/2 the expected number
// of attempts is small. Once the samples have drawn rootedCoinBudget edge
// coins without a rooted one, as they would for a tiny p, it roots the last
// sample instead: it draws an agent r uniformly and adds the edge r -> j for
// every j that r does not reach. Either way the result is a function of the
// RNG's state. It panics if p <= 0 makes success impossible.
func RandomRooted(rng *rand.Rand, n int, p float64) Graph {
	if p <= 0 {
		panic("graph: RandomRooted requires p > 0")
	}
	scratch := make([]int32, 5*n)
	for coins := 0; ; {
		g := Random(rng, n, p)
		if g.rootComponent(nil, scratch) {
			return g
		}
		if coins += n * (n - 1); coins >= rootedCoinBudget {
			return rootAt(g, rng.Intn(n))
		}
	}
}

// rootAt returns g plus the edge r -> j for every node j that r does not
// reach in g, which makes r a root.
func rootAt(g Graph, r int) Graph {
	reach := NodesToSet(g.n, []int{r})
	for grew := true; grew; {
		grew = false
		for j := 0; j < g.n; j++ {
			if reach[j/wordBits]&(1<<uint(j%wordBits)) != 0 {
				continue
			}
			for wi, m := range g.row(j) {
				if m&reach[wi] != 0 {
					reach[j/wordBits] |= 1 << uint(j%wordBits)
					grew = true
					break
				}
			}
		}
	}
	b := NewBuilder(g.n)
	copy(b.in, g.in)
	for j := 0; j < g.n; j++ {
		if reach[j/wordBits]&(1<<uint(j%wordBits)) == 0 {
			b.Edge(r, j)
		}
	}
	return b.Graph()
}

// RandomNonSplit returns a random non-split graph on n nodes: it samples
// Random(n, p) and, if the result splits some pair, patches each splitting
// pair with a common in-neighbor chosen at random.
func RandomNonSplit(rng *rand.Rand, n int, p float64) Graph {
	g := Random(rng, n, p)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.SetInRow(i, g.row(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gi := b.row(i)
			gj := b.row(j)
			meet := false
			for wi := range gi {
				if gi[wi]&gj[wi] != 0 {
					meet = true
					break
				}
			}
			if !meet {
				k := rng.Intn(n)
				b.Edge(k, i)
				b.Edge(k, j)
			}
		}
	}
	out := b.Graph()
	if !out.IsNonSplit() {
		// A patch can never undo earlier patches (edges are only added),
		// so a single pass suffices; this is a defensive invariant check.
		panic("graph: RandomNonSplit produced a split graph")
	}
	return out
}

// RandomExactInDegree returns a random graph in which every agent hears
// itself plus exactly n-f-1 other agents, i.e. in-degree exactly n-f
// (n-f >= 1 required). This models a round-based asynchronous agent that
// steps on exactly its first n-f round messages, own message included.
func RandomExactInDegree(rng *rand.Rand, n, f int) Graph {
	checkN(n)
	if f < 0 || f >= n {
		panic(fmt.Sprintf("graph: RandomExactInDegree requires 0 <= f < n, got f=%d n=%d", f, n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		perm := rng.Perm(n)
		picked := 0
		for _, j := range perm {
			if picked == n-f-1 {
				break
			}
			if j == i {
				continue
			}
			b.Edge(j, i)
			picked++
		}
	}
	return b.Graph()
}

// RandomMinInDegree returns a random graph with minimum in-degree >= n-f,
// i.e. a member of the asynchronous-round model N_A(n, f): each agent hears
// itself and a uniformly random superset of size >= n-f of the agents.
func RandomMinInDegree(rng *rand.Rand, n, f int) Graph {
	checkN(n)
	if f < 0 || f >= n {
		panic(fmt.Sprintf("graph: RandomMinInDegree requires 0 <= f < n, got f=%d n=%d", f, n))
	}
	b := NewBuilder(n)
	row := make([]uint64, WordsFor(n))
	for i := 0; i < n; i++ {
		// Choose how many agents to drop (0..f, but never drop self).
		drop := rng.Intn(f + 1)
		perm := rng.Perm(n)
		dropped := 0
		fillFull(row, n)
		for _, j := range perm {
			if dropped == drop {
				break
			}
			if j == i {
				continue
			}
			row[j/wordBits] &^= 1 << uint(j%wordBits)
			dropped++
		}
		b.SetInRow(i, row)
	}
	return b.Graph()
}
