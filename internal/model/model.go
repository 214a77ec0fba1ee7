// Package model implements network models — sets of communication graphs
// from which a dynamic-network adversary picks one graph per round — and
// the solvability machinery of Section 7 of Függer, Nowak, Schwarz,
// "Tight Bounds for Asymptotic and Approximate Consensus" (PODC 2018):
//
//   - the alpha relation of Coulouma, Godard, Peters (Definition 15),
//   - its transitive closure and the alpha-diameter (Definition 22),
//   - the beta equivalence classes (Definition 16) and
//     source-incompatibility (Definition 18),
//   - the exact-consensus solvability test (Theorem 19), and
//   - the contraction-rate lower-bound selector that combines Theorems 1,
//     2, 3, 5 and Corollary 23.
package model

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Model is an immutable, deduplicated set of communication graphs on a
// common node count. The adversary of the dynamic-network model picks an
// arbitrary member in every round.
type Model struct {
	n      int
	graphs []graph.Graph
	index  map[string]int // keyed by Graph.AppendMaskKey
}

// New builds a model from the given graphs, deduplicating them and
// preserving first-occurrence order. It returns an error if the set is
// empty or the node counts disagree.
func New(gs ...graph.Graph) (*Model, error) {
	if len(gs) == 0 {
		return nil, fmt.Errorf("model: empty graph set")
	}
	n := gs[0].N()
	m := &Model{n: n, index: make(map[string]int)}
	for _, g := range gs {
		if g.N() != n {
			return nil, fmt.Errorf("model: node count mismatch: %d vs %d", g.N(), n)
		}
		k := string(g.AppendMaskKey(nil))
		if _, dup := m.index[k]; dup {
			continue
		}
		m.index[k] = len(m.graphs)
		m.graphs = append(m.graphs, g)
	}
	return m, nil
}

// MustNew is New that panics on error; for statically known models.
func MustNew(gs ...graph.Graph) *Model {
	m, err := New(gs...)
	if err != nil {
		panic(err)
	}
	return m
}

// N returns the number of agents.
func (m *Model) N() int { return m.n }

// Size returns the number of distinct graphs.
func (m *Model) Size() int { return len(m.graphs) }

// Graph returns the i-th graph in deterministic model order.
func (m *Model) Graph(i int) graph.Graph { return m.graphs[i] }

// Graphs returns a copy of the graph list.
func (m *Model) Graphs() []graph.Graph {
	out := make([]graph.Graph, len(m.graphs))
	copy(out, m.graphs)
	return out
}

// Contains reports whether g is a member of the model.
func (m *Model) Contains(g graph.Graph) bool {
	_, ok := m.index[string(g.AppendMaskKey(nil))]
	return ok
}

// Index returns the position of g in the model, or -1.
func (m *Model) Index(g graph.Graph) int {
	if i, ok := m.index[string(g.AppendMaskKey(nil))]; ok {
		return i
	}
	return -1
}

// IsRooted reports whether every member graph is rooted. By Theorem 1 of
// Charron-Bost et al. (restated as Section 2.2, Theorem 1 in the paper),
// asymptotic consensus is solvable in the model iff this holds.
func (m *Model) IsRooted() bool {
	for _, g := range m.graphs {
		if !g.IsRooted() {
			return false
		}
	}
	return true
}

// IsNonSplit reports whether every member graph is non-split.
func (m *Model) IsNonSplit() bool {
	for _, g := range m.graphs {
		if !g.IsNonSplit() {
			return false
		}
	}
	return true
}

// Sub returns the sub-model consisting of the graphs at the given indices.
func (m *Model) Sub(indices []int) *Model {
	gs := make([]graph.Graph, 0, len(indices))
	for _, i := range indices {
		gs = append(gs, m.graphs[i])
	}
	sub, err := New(gs...)
	if err != nil {
		panic(fmt.Sprintf("model: Sub on invalid index set: %v", err))
	}
	return sub
}

// String lists the member graphs.
func (m *Model) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Model(n=%d, %d graphs){", m.n, len(m.graphs))
	for i, g := range m.graphs {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(g.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// AlphaRelated reports g alpha_{N,K} h: g and h assign the same
// in-neighborhoods to every root of k (Definition 15). The relation is
// reflexive and symmetric; the model only contributes the requirement
// k ∈ N, which the caller asserts by passing a member graph.
func AlphaRelated(g, h, k graph.Graph) bool {
	return graph.InsOnSet(g, h, k.RootsSet())
}

// bitMatrix is a square symmetric boolean matrix stored as packed 64-bit
// rows, the idiom used for in-neighbor masks in internal/graph. Row i
// occupies words[i*stride : (i+1)*stride]; bit j of a row marks adjacency
// to column j. The packed layout makes the reachability sweeps below
// (component closure, BFS level expansion) word-parallel: one OR merges
// 64 adjacency columns at a time.
type bitMatrix struct {
	n      int
	stride int
	words  []uint64
}

func newBitMatrix(n int) bitMatrix {
	stride := (n + 63) / 64
	return bitMatrix{n: n, stride: stride, words: make([]uint64, n*stride)}
}

func (bm bitMatrix) set(i, j int) {
	bm.words[i*bm.stride+j>>6] |= 1 << uint(j&63)
}

func (bm bitMatrix) row(i int) []uint64 {
	return bm.words[i*bm.stride : (i+1)*bm.stride]
}

// orRowsOf ORs into dst the adjacency rows of every index set in src,
// i.e. dst |= ∪_{i ∈ src} row(i).
func (bm bitMatrix) orRowsOf(dst, src []uint64) {
	for w, word := range src {
		base := w << 6
		for word != 0 {
			i := base + trailingZeros(word)
			word &= word - 1
			row := bm.row(i)
			for x := range dst {
				dst[x] |= row[x]
			}
		}
	}
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// alphaAdjacency returns the adjacency matrix of the one-step alpha
// relation over model indices, using the allowed witness indices, as
// packed bitmask rows. Bit b of row a is set iff some witness k satisfies
// graphs[members[a]] alpha_{.,k} graphs[members[b]].
func (m *Model) alphaAdjacency(members, witnesses []int) bitMatrix {
	// A witness enters the alpha relation only through its root set, so
	// deduplicating root sets shrinks the inner loop drastically: models
	// like FullAsyncRound(4,1) have 256 witnesses but only a handful of
	// distinct root sets.
	rootSets := make([][]uint64, 0, len(witnesses))
	for _, k := range witnesses {
		roots := m.graphs[k].RootsSet()
		dup := false
		for _, seen := range rootSets {
			if graph.SetsEqual(seen, roots) {
				dup = true
				break
			}
		}
		if !dup {
			rootSets = append(rootSets, roots)
		}
	}
	adj := newBitMatrix(len(members))
	for a, i := range members {
		adj.set(a, a)
		for b := a + 1; b < len(members); b++ {
			j := members[b]
			for _, roots := range rootSets {
				if graph.InsOnSet(m.graphs[i], m.graphs[j], roots) {
					adj.set(a, b)
					adj.set(b, a)
					break
				}
			}
		}
	}
	return adj
}

// AlphaClasses returns the partition of the model into connected
// components of the alpha* relation (transitive closure of the union of
// alpha_{N,K} over K in N). Classes are sorted by smallest member index.
func (m *Model) AlphaClasses() [][]int {
	all := m.allIndices()
	adj := m.alphaAdjacency(all, all)
	return components(adj, all)
}

// AlphaDiameter returns the alpha-diameter of the model (Definition 22):
// the smallest D such that any two member graphs are joined by an
// alpha-chain of length at most D with all chain members and witnesses in
// the model. finite is false when the model is not alpha*-connected, in
// which case the paper sets D = infinity.
func (m *Model) AlphaDiameter() (d int, finite bool) {
	all := m.allIndices()
	return m.alphaDiameterWithin(all, all)
}

// alphaDiameterWithin computes the diameter of the one-step alpha graph
// restricted to members, with witnesses drawn from the witness set, via
// BFS from every member.
func (m *Model) alphaDiameterWithin(members, witnesses []int) (int, bool) {
	adj := m.alphaAdjacency(members, witnesses)
	n := len(members)
	stride := adj.stride
	full := make([]uint64, stride)
	for i := 0; i < n; i++ {
		full[i>>6] |= 1 << uint(i&63)
	}
	visited := make([]uint64, stride)
	frontier := make([]uint64, stride)
	next := make([]uint64, stride)
	maxDist := 0
	for s := 0; s < n; s++ {
		// Level-synchronous BFS on bitmask frontiers: each level expands
		// by OR-ing whole adjacency rows, 64 columns per word operation.
		for w := range visited {
			visited[w] = 0
			frontier[w] = 0
		}
		visited[s>>6] = 1 << uint(s&63)
		frontier[s>>6] = visited[s>>6]
		dist := 0
		for !equalWords(visited, full) {
			for w := range next {
				next[w] = 0
			}
			adj.orRowsOf(next, frontier)
			advanced := false
			for w := range next {
				next[w] &^= visited[w]
				if next[w] != 0 {
					advanced = true
				}
			}
			if !advanced {
				return 0, false // s cannot reach every member
			}
			dist++
			for w := range next {
				visited[w] |= next[w]
			}
			copy(frontier, next)
		}
		if dist > maxDist {
			maxDist = dist
		}
	}
	if maxDist < 1 {
		maxDist = 1 // Definition 22 requires D >= 1.
	}
	return maxDist, true
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BetaClasses returns the beta-equivalence classes of the model
// (Definition 16): the coarsest equivalence relation included in alpha*
// satisfying the closure property that any two related graphs are joined
// by an alpha-chain whose members and witnesses all lie in the same class.
//
// The computation is the standard greatest-fixpoint refinement: start from
// the alpha*-classes and repeatedly split each class into the connected
// components of the one-step alpha relation that only uses witnesses from
// the class itself, until stable. Classes only ever shrink, so the loop
// terminates; the result satisfies the closure property by construction
// and is coarsest because every relation satisfying the property is
// preserved by each refinement step.
func (m *Model) BetaClasses() [][]int {
	classes := m.AlphaClasses()
	for {
		var next [][]int
		changed := false
		for _, class := range classes {
			adj := m.alphaAdjacency(class, class)
			comps := components(adj, class)
			if len(comps) > 1 {
				changed = true
			}
			next = append(next, comps...)
		}
		classes = next
		if !changed {
			sortClasses(classes)
			return classes
		}
	}
}

// SourceIncompatible reports whether the sub-model given by the indices is
// source-incompatible (Definition 18): the intersection of the root sets
// of its graphs is empty. An empty index set is vacuously compatible.
func (m *Model) SourceIncompatible(indices []int) bool {
	if len(indices) == 0 {
		return false
	}
	inter := append([]uint64(nil), m.graphs[indices[0]].RootsSet()...)
	for _, i := range indices[1:] {
		r := m.graphs[i].RootsSet()
		for w := range inter {
			inter[w] &= r[w]
		}
	}
	return graph.SetCount(inter) == 0
}

// ExactConsensusSolvable decides exact consensus solvability in the model
// via Theorem 19 (the generalization of Coulouma et al., Theorem 4.10):
// exact consensus is solvable iff no beta-class is source-incompatible.
func (m *Model) ExactConsensusSolvable() bool {
	for _, class := range m.BetaClasses() {
		if m.SourceIncompatible(class) {
			return false
		}
	}
	return true
}

func (m *Model) allIndices() []int {
	all := make([]int, len(m.graphs))
	for i := range all {
		all[i] = i
	}
	return all
}

// components returns the connected components of an undirected adjacency
// bit matrix, translated back to the original index labels. The closure of
// each component is computed word-parallel: the frontier is a bitmask and
// each expansion ORs whole adjacency rows.
//
// labels must be in ascending order: extracting members in bit order then
// yields each component already sorted, which sortClasses relies on
// (classes are ordered by their first = smallest member). Every caller
// passes ascending labels (allIndices, or a component of a previous
// components call).
func components(adj bitMatrix, labels []int) [][]int {
	n := len(labels)
	stride := adj.stride
	seen := make([]uint64, stride)
	comp := make([]uint64, stride)
	frontier := make([]uint64, stride)
	next := make([]uint64, stride)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s>>6]&(1<<uint(s&63)) != 0 {
			continue
		}
		for w := range comp {
			comp[w] = 0
			frontier[w] = 0
		}
		comp[s>>6] = 1 << uint(s&63)
		frontier[s>>6] = comp[s>>6]
		for {
			for w := range next {
				next[w] = 0
			}
			adj.orRowsOf(next, frontier)
			grew := false
			for w := range next {
				next[w] &^= comp[w]
				if next[w] != 0 {
					grew = true
				}
				comp[w] |= next[w]
			}
			if !grew {
				break
			}
			copy(frontier, next)
		}
		members := make([]int, 0, 8)
		for w, word := range comp {
			seen[w] |= word
			base := w << 6
			for word != 0 {
				members = append(members, labels[base+trailingZeros(word)])
				word &= word - 1
			}
		}
		comps = append(comps, members)
	}
	sortClasses(comps)
	return comps
}

func sortClasses(classes [][]int) {
	sort.Slice(classes, func(a, b int) bool { return classes[a][0] < classes[b][0] })
}
