package graph

import (
	"math"
	"math/bits"
	"sync"
)

// finished is the DFS number rootComponent gives a node once its strongly
// connected component is complete: above every live number, so the
// low-link minimum skips it without an on-stack flag.
const finished = math.MaxInt32

// RootsSet returns the roots of g — the nodes with a directed path to
// every node — as a word-sliced node set of length WordsFor(n); the paper
// writes R(G). A graph is rooted iff the set is non-empty.
func (g Graph) RootsSet() []uint64 {
	roots := make([]uint64, g.Words())
	if !g.findRoots(roots) {
		clear(roots)
	}
	return roots
}

// IsRooted reports whether the graph contains a rooted spanning tree, i.e.
// has at least one root. Asymptotic consensus is solvable in a network
// model iff all its graphs are rooted (paper, Theorem 1 of Section 2.2).
func (g Graph) IsRooted() bool { return g.findRoots(nil) }

// rootScratch pools rootComponent's scratch, so model predicates,
// enumerations and certification test graph after graph without
// allocating.
var rootScratch = sync.Pool{New: func() any { return new([]int32) }}

// findRoots runs rootComponent on scratch drawn from rootScratch.
func (g Graph) findRoots(roots []uint64) bool {
	s := rootScratch.Get().(*[]int32)
	if cap(*s) < 5*g.n {
		*s = make([]int32, 5*g.n)
	}
	found := g.rootComponent(roots, (*s)[:5*g.n])
	rootScratch.Put(s)
	return found
}

// rootComponent reports whether g has roots and, when roots is non-nil,
// ORs the first source component it finds into roots (callers clear roots
// on false). s is its scratch, of length at least 5n.
//
// It runs Tarjan's strongly-connected-components algorithm once, on the
// transpose of g, whose out-rows are exactly the stored in-rows. Tarjan
// finishes components in reverse topological order, so the first one it
// finishes has no edge out in the transpose: it is a source of g's
// condensation. The roots are exactly that component's members when it is
// the only source, since a finite DAG with one source reaches every
// component from it, and there are none otherwise. A later component C is
// another source iff no node of C has an edge to a finished component.
// When C's first node v finishes, the nodes numbered from num[v] on are
// exactly v's DFS subtree: C and components that finished inside it, one
// of which C reaches by a tree edge if there are any. So one number
// suffices: hit, the largest DFS number of a node seen with an edge into a
// finished component. C is a source iff hit < num[v].
//
// The DFS is iterative, with a frame stack and a scan cursor per node, and
// all of its scratch is s.
func (g Graph) rootComponent(roots []uint64, s []int32) bool {
	n, w := g.n, g.Words()
	clear(s[:n])
	num := s[:n:n]          // DFS number, 0 if unvisited, finished once done
	low := s[n : 2*n : 2*n] // Tarjan low-link
	stack := s[2*n : 3*n : 3*n]
	frames := s[3*n : 4*n : 4*n]
	next := s[4*n : 5*n : 5*n] // next in-row bit to scan
	var count, hit int32
	sp, found := 0, false
	for r := 0; r < n; r++ {
		if num[r] != 0 {
			continue
		}
		count++
		num[r], low[r], next[r] = count, count, 0
		stack[sp], frames[0] = int32(r), int32(r)
		sp++
		for fp := 1; fp > 0; {
			v := int(frames[fp-1])
			row := g.in[v*w : (v+1)*w]
			lv, p, child := low[v], int(next[v]), -1
			mask := ^uint64(0) << uint(p%wordBits) // bits >= p in p's word
		scan:
			for wi := p / wordBits; wi < w; wi++ {
				m := row[wi] & mask
				mask = ^uint64(0)
				for m != 0 {
					u := wi*wordBits + bits.TrailingZeros64(m)
					m &= m - 1
					switch nu := num[u]; {
					case nu == 0:
						child = u
						break scan
					case nu == finished:
						hit = max(hit, num[v])
					case nu < lv:
						lv = nu
					}
				}
			}
			low[v] = lv
			if child >= 0 {
				next[v] = int32(child + 1)
				count++
				num[child], low[child], next[child] = count, count, 0
				stack[sp], frames[fp] = int32(child), int32(child)
				sp++
				fp++
				continue
			}
			fp--
			if low[v] < num[v] {
				// v's component stays open; its first node is an ancestor.
				parent := frames[fp-1]
				low[parent] = min(low[parent], low[v])
				continue
			}
			if found && hit < num[v] {
				return false // a second source: no node reaches everyone
			}
			for {
				sp--
				u := stack[sp]
				num[u] = finished
				if !found && roots != nil {
					roots[u/wordBits] |= 1 << uint(u%wordBits)
				}
				if int(u) == v {
					break
				}
			}
			found = true
			if fp > 0 {
				hit = max(hit, num[frames[fp-1]])
			}
		}
	}
	return found
}
