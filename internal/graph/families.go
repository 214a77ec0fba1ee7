package graph

import "fmt"

// This file constructs the graph families the paper's bounds are built
// from: the two-agent graphs H0, H1, H2 (Figure 1), the deaf(G) family
// (Section 5), the Ψ graphs and σ blocks (Figure 2, Section 6), and the
// silenced-block graphs of Lemma 24 (Section 8).

// H returns one of the three rooted (and non-split) communication graphs on
// two agents from Figure 1 of the paper:
//
//	H(0): both messages received      (0 <-> 1)
//	H(1): agent 1 hears agent 0 only  (0 -> 1); agent 0 is deaf
//	H(2): agent 0 hears agent 1 only  (1 -> 0); agent 1 is deaf
//
// These are all rooted graphs on two nodes, and {H0, H1, H2} is the weakest
// two-agent model in which asymptotic consensus is solvable. Theorem 1
// proves the 1/3 contraction lower bound for any model containing all
// three.
func H(k int) Graph {
	switch k {
	case 0:
		return Complete(2)
	case 1:
		return MustFromEdges(2, [2]int{0, 1})
	case 2:
		return MustFromEdges(2, [2]int{1, 0})
	default:
		panic(fmt.Sprintf("graph: H(%d) undefined, want 0..2", k))
	}
}

// HFamily returns {H0, H1, H2}, the full set of rooted two-agent graphs.
func HFamily() []Graph {
	return []Graph{H(0), H(1), H(2)}
}

// Deaf returns the graph F_i obtained from g by making agent i deaf:
// all incoming edges of i except the self-loop are removed (paper,
// Section 5).
func Deaf(g Graph, i int) Graph {
	checkNode(g.n, i)
	in := make([]uint64, len(g.in))
	copy(in, g.in)
	w := g.Words()
	row := in[i*w : (i+1)*w]
	for wi := range row {
		row[wi] = 0
	}
	row[i/wordBits] = 1 << uint(i%wordBits)
	return Graph{n: g.n, in: in}
}

// IsDeaf reports whether agent i is deaf in g, i.e. hears only itself.
func (g Graph) IsDeaf(i int) bool {
	checkNode(g.n, i)
	for wi, m := range g.row(i) {
		want := uint64(0)
		if wi == i/wordBits {
			want = 1 << uint(i%wordBits)
		}
		if m != want {
			return false
		}
	}
	return true
}

// DeafFamily returns deaf(g) = {F_1, ..., F_n} where F_i makes agent i deaf
// in g. Theorem 2 proves the 1/2 contraction lower bound for any model of
// n >= 3 agents containing deaf(g) for some graph g.
func DeafFamily(g Graph) []Graph {
	fam := make([]Graph, g.n)
	for i := 0; i < g.n; i++ {
		fam[i] = Deaf(g, i)
	}
	return fam
}

// Psi returns the rooted communication graph Ψ_i of Figure 2 for
// i in {0, 1, 2} on n >= 4 nodes. Translated to 0-based indices from the
// paper's 1-based ones:
//
//   - nodes 3..n-2 form a path with edges j -> j+1,
//   - the two agents of {0, 1, 2} other than i have node n-1 as their
//     in-neighbor and node 3 as their out-neighbor,
//   - agent i has node 3 as its out-neighbor and hears nobody (i is deaf).
//
// Agent i is the unique root. Theorem 3 proves the (n-2)-th-root-of-1/2
// contraction lower bound for models containing the Ψ graphs.
func Psi(n, i int) Graph {
	if n < 4 {
		panic(fmt.Sprintf("graph: Psi requires n >= 4, got %d", n))
	}
	if i < 0 || i > 2 {
		panic(fmt.Sprintf("graph: Psi trio agent %d out of {0,1,2}", i))
	}
	b := NewBuilder(n)
	for j := 3; j+1 <= n-1; j++ {
		b.Edge(j, j+1)
	}
	for u := 0; u < 3; u++ {
		b.Edge(u, 3)
		if u != i {
			b.Edge(n-1, u)
		}
	}
	return b.Graph()
}

// PsiFamily returns {Ψ_0, Ψ_1, Ψ_2} on n nodes.
func PsiFamily(n int) []Graph {
	return []Graph{Psi(n, 0), Psi(n, 1), Psi(n, 2)}
}

// SigmaBlock returns σ_i: the sequence consisting of n-2 copies of Ψ_i.
// The lower-bound adversary of Theorem 3 plays whole σ blocks; after one
// block, the two trio agents other than i cannot distinguish which block
// was played (Lemma 14).
func SigmaBlock(n, i int) []Graph {
	psi := Psi(n, i)
	block := make([]Graph, n-2)
	for k := range block {
		block[k] = psi
	}
	return block
}

// SilenceBlock returns the graph K_r of Lemma 24 (made self-loop-correct):
// every agent hears every agent except the agents in block r, where blocks
// partition [n] into ⌈n/f⌉ chunks of size at most f (block r covers nodes
// r*f .. min((r+1)*f, n)-1, r counted from 0). Members of the silenced
// block additionally hear themselves. Its root set is exactly the
// complement of block r.
func SilenceBlock(n, f, r int) Graph {
	checkN(n)
	if f < 1 || f >= n {
		panic(fmt.Sprintf("graph: SilenceBlock requires 1 <= f < n, got f=%d n=%d", f, n))
	}
	lo := r * f
	hi := lo + f
	if hi > n {
		hi = n
	}
	if lo < 0 || lo >= n {
		panic(fmt.Sprintf("graph: SilenceBlock block %d out of range for n=%d f=%d", r, n, f))
	}
	base := make([]uint64, WordsFor(n))
	fillFull(base, n)
	for i := lo; i < hi; i++ {
		base[i/wordBits] &^= 1 << uint(i%wordBits)
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.SetInRow(i, base) // SetInRow restores i's self-loop
	}
	return b.Graph()
}

// NumBlocks returns ⌈n/f⌉, the number of silenced blocks for Lemma 24.
func NumBlocks(n, f int) int {
	return (n + f - 1) / f
}

// Lemma24Chain constructs, for two graphs g and h on n nodes with minimum
// in-degree >= n-f, the chain H_0 = g, H_1, ..., H_q = h and the witnesses
// K_1, ..., K_q of Lemma 24 with q = ⌈n/f⌉:
//
//	In_i(H_r) = In_i(g) for i < r*f, and In_i(h) otherwise,
//	K_r       = SilenceBlock(n, f, r-1).
//
// Every H_r and K_r again has minimum in-degree >= n-f, and consecutive
// chain members agree on the in-neighborhoods of all roots of K_r, which
// is exactly the alpha_{N,K_r} relation of Definition 15. The chain proves
// that the alpha-diameter of the asynchronous-round model N_A is at most
// ⌈n/f⌉, and with it the 1/(⌈n/f⌉+1) round-based contraction bound of
// Theorem 6.
func Lemma24Chain(g, h Graph, f int) (hs, ks []Graph, err error) {
	n := g.n
	if h.n != n {
		return nil, nil, fmt.Errorf("graph: Lemma24Chain size mismatch %d vs %d", n, h.n)
	}
	if f < 1 || 2*f >= n {
		return nil, nil, fmt.Errorf("graph: Lemma24Chain requires 0 < f < n/2, got f=%d n=%d", f, n)
	}
	for i := 0; i < n; i++ {
		if g.InDegree(i) < n-f || h.InDegree(i) < n-f {
			return nil, nil, fmt.Errorf("graph: node %d has in-degree below n-f=%d", i, n-f)
		}
	}
	q := NumBlocks(n, f)
	hs = make([]Graph, q+1)
	ks = make([]Graph, q)
	for r := 0; r <= q; r++ {
		// Nodes below r*f have already switched to h's in-neighborhoods;
		// the rest still carry g's. (The paper states the mixture with g
		// and h swapped, which contradicts its own H_0 = G, H_q = H; we
		// follow the stated endpoints.)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			if i < r*f {
				b.SetInRow(i, h.row(i))
			} else {
				b.SetInRow(i, g.row(i))
			}
		}
		hs[r] = b.Graph()
	}
	for r := 1; r <= q; r++ {
		ks[r-1] = SilenceBlock(n, f, r-1)
	}
	return hs, ks, nil
}

// MinInDegree returns the smallest in-degree over all nodes (self-loops
// counted). Graphs of the asynchronous-round model N_A(n, f) are exactly
// those with MinInDegree >= n-f.
func (g Graph) MinInDegree() int {
	min := g.n + 1
	for i := 0; i < g.n; i++ {
		if d := g.InDegree(i); d < min {
			min = d
		}
	}
	return min
}
