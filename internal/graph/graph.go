// Package graph implements directed communication graphs for round-based
// dynamic-network models in the style of the Heard-Of model (Charron-Bost,
// Schiper 2009), as used by Függer, Nowak, Schwarz, "Tight Bounds for
// Asymptotic and Approximate Consensus" (PODC 2018).
//
// A communication graph on n agents (nodes 0..n-1) has a directed edge
// (i, j) iff agent j receives agent i's message in the given round. Every
// graph carries a mandatory self-loop at each node: an agent always hears
// itself (paper, Section 2).
//
// Graphs are represented by one in-neighbor bit row per node, sliced into
// W = ⌈n/64⌉ machine words, which makes the graph product, root
// computation, and the non-split predicate word-parallel. The number of
// agents is capped at MaxNodes = 1024 (W <= 16). Rows are word slices at
// every width: InRow, SetInRow and FromInWords read and write them, and no
// accessor knows that a row of n <= 64 is one word.
//
// A Graph value is immutable after construction. Use a Builder, one of the
// named constructors (Complete, Cycle, ...), or the paper-specific families
// (H, Psi, Deaf, SilenceBlock) to create graphs.
package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MaxNodes is the maximum number of agents supported by the word-sliced
// bitmask representation.
const MaxNodes = 1024

// wordBits is the size of one mask word.
const wordBits = 64

// WordsFor returns W = ⌈n/64⌉, the number of mask words per node row for a
// graph on n nodes.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Graph is an immutable directed communication graph with mandatory
// self-loops. The zero value is not a valid graph; use New or a Builder.
type Graph struct {
	n  int
	in []uint64 // row-major: node j's in-row is in[j*W : (j+1)*W], bit j set
}

// fullMask returns the single-word bitmask with bits 0..n-1 set (n <= 64).
func fullMask(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// fillFull sets row to the full node set {0..n-1}. len(row) = WordsFor(n).
func fillFull(row []uint64, n int) {
	for wi := range row {
		row[wi] = ^uint64(0)
	}
	if tail := n % wordBits; tail != 0 {
		row[len(row)-1] = fullMask(tail)
	}
}

// checkN panics unless 1 <= n <= MaxNodes. Invalid sizes are programmer
// errors, analogous to a negative slice length.
func checkN(n int) {
	if n < 1 || n > MaxNodes {
		panic(fmt.Sprintf("graph: invalid node count %d (want 1..%d)", n, MaxNodes))
	}
}

// checkNode panics unless 0 <= i < n.
func checkNode(n, i int) {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", i, n))
	}
}

// row returns node j's in-row storage (not a copy).
func (g Graph) row(j int) []uint64 {
	w := g.Words()
	return g.in[j*w : (j+1)*w : (j+1)*w]
}

// selfLoops returns a fresh row-major mask slab for n nodes with exactly
// the self-loop bits set.
func selfLoops(n int) []uint64 {
	w := WordsFor(n)
	in := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		in[i*w+i/wordBits] |= 1 << uint(i%wordBits)
	}
	return in
}

// New returns the identity graph on n nodes: self-loops only. In the
// dynamic-network model this is the round in which nobody hears anybody.
func New(n int) Graph {
	checkN(n)
	return Graph{n: n, in: selfLoops(n)}
}

// Complete returns the complete communication graph K_n: every agent hears
// every agent.
func Complete(n int) Graph {
	checkN(n)
	w := WordsFor(n)
	in := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		fillFull(in[i*w:(i+1)*w], n)
	}
	return Graph{n: n, in: in}
}

// Cycle returns the directed cycle 0 -> 1 -> ... -> n-1 -> 0 (plus
// self-loops).
func Cycle(n int) Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Edge(i, (i+1)%n)
	}
	return b.Graph()
}

// PathGraph returns the directed path 0 -> 1 -> ... -> n-1 (plus self-loops).
func PathGraph(n int) Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.Edge(i, i+1)
	}
	return b.Graph()
}

// Star returns the out-star centered at node c: edges c -> j for all j != c
// (plus self-loops). The center is the unique root.
func Star(n, c int) Graph {
	checkNode(n, c)
	b := NewBuilder(n)
	for j := 0; j < n; j++ {
		if j != c {
			b.Edge(c, j)
		}
	}
	return b.Graph()
}

// FromInWords constructs a graph from row-major word-sliced in-rows: node
// j's in-neighbors occupy words[j*W : (j+1)*W] with W = WordsFor(n),
// little-endian within the row (bit i of word i/64). It returns an error
// if a row references a node >= n (a set bit above the tail) or misses the
// mandatory self-loop.
func FromInWords(n int, words []uint64) (Graph, error) {
	checkN(n)
	w := WordsFor(n)
	if len(words) != n*w {
		return Graph{}, fmt.Errorf("graph: got %d words for %d nodes x %d words", len(words), n, w)
	}
	tail := n % wordBits
	in := make([]uint64, n*w)
	copy(in, words)
	for i := 0; i < n; i++ {
		row := in[i*w : (i+1)*w]
		if tail != 0 && row[w-1]&^fullMask(tail) != 0 {
			return Graph{}, fmt.Errorf("graph: row of node %d references nodes >= %d", i, n)
		}
		if row[i/wordBits]&(1<<uint(i%wordBits)) == 0 {
			return Graph{}, fmt.Errorf("graph: node %d is missing its self-loop", i)
		}
	}
	return Graph{n: n, in: in}, nil
}

// FromEdges constructs a graph on n nodes from the given (from, to) edge
// list. Self-loops are added automatically and need not be listed.
func FromEdges(n int, edges ...[2]int) (Graph, error) {
	checkN(n)
	w := WordsFor(n)
	in := selfLoops(n)
	for _, e := range edges {
		from, to := e[0], e[1]
		if from < 0 || from >= n || to < 0 || to >= n {
			return Graph{}, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", from, to, n)
		}
		in[to*w+from/wordBits] |= 1 << uint(from%wordBits)
	}
	return Graph{n: n, in: in}, nil
}

// MustFromEdges is FromEdges that panics on error; intended for statically
// known edge lists in tests and examples.
func MustFromEdges(n int, edges ...[2]int) Graph {
	g, err := FromEdges(n, edges...)
	if err != nil {
		panic(err)
	}
	return g
}

// Builder incrementally assembles a Graph. The zero Builder is not usable;
// call NewBuilder.
type Builder struct {
	n  int
	w  int
	in []uint64 // row-major, like Graph.in
}

// NewBuilder returns a Builder for a graph on n nodes, pre-populated with
// the mandatory self-loops.
func NewBuilder(n int) *Builder {
	checkN(n)
	return &Builder{n: n, w: WordsFor(n), in: selfLoops(n)}
}

// row returns node i's in-row storage (not a copy).
func (b *Builder) row(i int) []uint64 {
	return b.in[i*b.w : (i+1)*b.w : (i+1)*b.w]
}

// Edge adds the directed edge from -> to and returns the builder for
// chaining.
func (b *Builder) Edge(from, to int) *Builder {
	checkNode(b.n, from)
	checkNode(b.n, to)
	b.in[to*b.w+from/wordBits] |= 1 << uint(from%wordBits)
	return b
}

// SetInRow sets the whole in-neighbor row of node i from a word slice of
// length WordsFor(n) (bits above n-1 are dropped, the self-loop is forced
// back on) and returns the builder. The row is copied.
func (b *Builder) SetInRow(i int, row []uint64) *Builder {
	checkNode(b.n, i)
	if len(row) != b.w {
		panic(fmt.Sprintf("graph: SetInRow got %d words, want %d", len(row), b.w))
	}
	dst := b.row(i)
	copy(dst, row)
	if tail := b.n % wordBits; tail != 0 {
		dst[b.w-1] &= fullMask(tail)
	}
	dst[i/wordBits] |= 1 << uint(i%wordBits)
	return b
}

// Graph finalizes the builder. The builder remains usable; the returned
// graph is an independent snapshot.
func (b *Builder) Graph() Graph {
	in := make([]uint64, len(b.in))
	copy(in, b.in)
	return Graph{n: b.n, in: in}
}

// N returns the number of nodes.
func (g Graph) N() int { return g.n }

// Words returns W = ⌈n/64⌉, the number of mask words per node row: the
// length of every InRow. It is 1 for every n <= 64 graph. W is derived
// from n rather than stored, which keeps a Graph at four machine words:
// small enough for the compiler to hold a Graph value in registers, so
// the inlined accessors in the kernels' loops copy nothing.
func (g Graph) Words() int { return int(uint(g.n+wordBits-1) / wordBits) }

// nodeRangeError is InRow's panic value for an out-of-range node. A
// plain value, unlike checkNode's formatted string, keeps the range check
// within the inliner's budget; the message is only built if recovered
// and printed.
type nodeRangeError struct{ node, n int }

func (e nodeRangeError) Error() string {
	return fmt.Sprintf("graph: node %d out of range [0,%d)", e.node, e.n)
}

// InRow returns node i's in-neighbor row: WordsFor(n) little-endian words,
// bit i of word i/64 always set. The returned slice aliases the graph's
// immutable storage — callers must not modify it. InRow is the dense
// kernels' row access at every width and inlines at every call site.
func (g Graph) InRow(i int) []uint64 {
	if uint(i) >= uint(g.n) {
		panic(nodeRangeError{i, g.n})
	}
	w := g.Words()
	j := i * w
	return g.in[j : j+w : j+w]
}

// HasEdge reports whether the edge from -> to is present.
func (g Graph) HasEdge(from, to int) bool {
	checkNode(g.n, from)
	checkNode(g.n, to)
	return g.in[to*g.Words()+from/wordBits]&(1<<uint(from%wordBits)) != 0
}

// In returns the sorted in-neighbors of node i (including i itself).
func (g Graph) In(i int) []int {
	checkNode(g.n, i)
	return SetToNodes(g.row(i))
}

// Out returns the sorted out-neighbors of node i (including i itself).
func (g Graph) Out(i int) []int {
	checkNode(g.n, i)
	var out []int
	wi, bit := i/wordBits, uint64(1)<<uint(i%wordBits)
	for j := 0; j < g.n; j++ {
		if g.in[j*g.Words()+wi]&bit != 0 {
			out = append(out, j)
		}
	}
	return out
}

// InDegree returns the in-degree of node i (counting the self-loop).
func (g Graph) InDegree(i int) int {
	checkNode(g.n, i)
	return SetCount(g.row(i))
}

// OutDegree returns the out-degree of node i (counting the self-loop).
func (g Graph) OutDegree(i int) int {
	checkNode(g.n, i)
	d := 0
	wi, bit := i/wordBits, uint64(1)<<uint(i%wordBits)
	for j := 0; j < g.n; j++ {
		if g.in[j*g.Words()+wi]&bit != 0 {
			d++
		}
	}
	return d
}

// EdgeCount returns the total number of edges, self-loops included.
func (g Graph) EdgeCount() int {
	c := 0
	for _, m := range g.in {
		c += bits.OnesCount64(m)
	}
	return c
}

// Edges returns all edges (from, to), self-loops excluded, sorted by
// (from, to).
func (g Graph) Edges() [][2]int {
	var edges [][2]int
	for j := 0; j < g.n; j++ {
		row := g.row(j)
		for wi, m := range row {
			if wi == j/wordBits {
				m &^= 1 << uint(j%wordBits)
			}
			for m != 0 {
				i := wi*wordBits + bits.TrailingZeros64(m)
				m &= m - 1
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})
	return edges
}

// Equal reports whether g and h are the same graph on the same node count.
func (g Graph) Equal(h Graph) bool {
	if g.n != h.n {
		return false
	}
	for i := range g.in {
		if g.in[i] != h.in[i] {
			return false
		}
	}
	return true
}

// Same reports whether g and h share the same backing mask storage — a
// constant-time identity test, strictly stronger than Equal. Schedules
// replay the same Graph value round after round (a lasso loop plays one
// value per loop slot), so Same lets per-round consumers — the batch
// plane's plan cache, the trace codec's dedup table — skip re-keying a
// graph they just keyed, without ever confusing two distinct graphs.
func (g Graph) Same(h Graph) bool {
	return g.n == h.n && len(g.in) > 0 && len(h.in) > 0 && &g.in[0] == &h.in[0]
}

// AppendMaskKey appends the graph's raw little-endian mask rows to dst:
// the canonical byte identity that the trace codec dedups on and the
// model index keys on. Equal graphs produce equal bytes; the node count
// is implied by the
// length (8*W bytes per node, and n*WordsFor(n) is strictly increasing in
// n, so graphs of different sizes never collide either).
func (g Graph) AppendMaskKey(dst []byte) []byte {
	for _, m := range g.in {
		dst = binary.LittleEndian.AppendUint64(dst, m)
	}
	return dst
}

// String renders the graph as an edge list, e.g. "G(3){0->1 1->2}"
// (self-loops omitted).
func (g Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "G(%d){", g.n)
	for k, e := range g.Edges() {
		if k > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d->%d", e[0], e[1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// DOT renders the graph in Graphviz DOT format (self-loops omitted).
func (g Graph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %s {\n", name)
	for i := 0; i < g.n; i++ {
		fmt.Fprintf(&sb, "  %d;\n", i)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %d -> %d;\n", e[0], e[1])
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Product returns the graph product g∘h: edge (i, j) present iff there is a
// k with (i, k) in g and (k, j) in h. Operationally: information that flows
// along g in round t and along h in round t+1 flows along g∘h over the two
// rounds (paper, Section 2).
func Product(g, h Graph) Graph {
	if g.n != h.n {
		panic(fmt.Sprintf("graph: product of mismatched sizes %d and %d", g.n, h.n))
	}
	w := g.Words()
	in := make([]uint64, g.n*w)
	for j := 0; j < g.n; j++ {
		dst := in[j*w : (j+1)*w]
		for wi, hm := range h.row(j) {
			base := wi * wordBits
			for hm != 0 {
				k := base + bits.TrailingZeros64(hm)
				hm &= hm - 1
				gr := g.row(k)
				for x := range dst {
					dst[x] |= gr[x]
				}
			}
		}
	}
	return Graph{n: g.n, in: in}
}

// ProductAll folds Product over the given graphs left to right. It panics
// if no graph is given.
func ProductAll(gs ...Graph) Graph {
	if len(gs) == 0 {
		panic("graph: ProductAll of empty sequence")
	}
	p := gs[0]
	for _, g := range gs[1:] {
		p = Product(p, g)
	}
	return p
}

// IsNonSplit reports whether any two nodes have a common in-neighbor.
// Non-split graphs arise as communication graphs of benign classical
// failure models and admit the midpoint algorithm's 1/2 contraction.
func (g Graph) IsNonSplit() bool {
	for i := 0; i < g.n; i++ {
		ri := g.row(i)
		for j := i + 1; j < g.n; j++ {
			rj := g.row(j)
			meet := false
			for wi := range ri {
				if ri[wi]&rj[wi] != 0 {
					meet = true
					break
				}
			}
			if !meet {
				return false
			}
		}
	}
	return true
}

// IsComplete reports whether every agent hears every agent.
func (g Graph) IsComplete() bool {
	return g.EdgeCount() == g.n*g.n
}

// InsOnSet reports whether g and h assign identical in-neighborhoods to
// every node in the word-sliced set s (length WordsFor(n)).
func InsOnSet(g, h Graph, s []uint64) bool {
	if g.n != h.n {
		return false
	}
	for wi, m := range s {
		base := wi * wordBits
		for m != 0 {
			i := base + bits.TrailingZeros64(m)
			m &= m - 1
			if i >= g.n {
				break
			}
			ri, hi := g.row(i), h.row(i)
			for x := range ri {
				if ri[x] != hi[x] {
					return false
				}
			}
		}
	}
	return true
}

// RowsEqual reports whether g and h assign the same in-neighborhood to
// node i (both graphs must have the same node count).
func RowsEqual(g, h Graph, i int) bool {
	if g.n != h.n {
		return false
	}
	ri, hi := g.row(i), h.row(i)
	for x := range ri {
		if ri[x] != hi[x] {
			return false
		}
	}
	return true
}

// NodesToMask packs a node slice into a single-word bitmask. Nodes must be
// below 64; use NodesToSet for wider graphs.
func NodesToMask(nodes []int) uint64 {
	var m uint64
	for _, i := range nodes {
		if i < 0 || i >= wordBits {
			panic(fmt.Sprintf("graph: node %d out of range [0,%d)", i, wordBits))
		}
		m |= 1 << uint(i)
	}
	return m
}

// SetToNodes expands a word-sliced node set into a sorted node slice.
func SetToNodes(s []uint64) []int {
	nodes := make([]int, 0, SetCount(s))
	for wi, m := range s {
		base := wi * wordBits
		for m != 0 {
			i := bits.TrailingZeros64(m)
			m &= m - 1
			nodes = append(nodes, base+i)
		}
	}
	return nodes
}

// NodesToSet packs a node slice into a word-sliced set of length
// WordsFor(n).
func NodesToSet(n int, nodes []int) []uint64 {
	checkN(n)
	s := make([]uint64, WordsFor(n))
	for _, i := range nodes {
		checkNode(n, i)
		s[i/wordBits] |= 1 << uint(i%wordBits)
	}
	return s
}

// SetCount returns the number of nodes in the word-sliced set s.
func SetCount(s []uint64) int {
	c := 0
	for _, m := range s {
		c += bits.OnesCount64(m)
	}
	return c
}

// SetsEqual reports whether two word-sliced sets of equal length hold the
// same nodes.
func SetsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
