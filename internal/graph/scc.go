package graph

import (
	"math/bits"
	"sort"
)

// SCCs returns the strongly connected components of the graph in reverse
// topological order of the condensation (every edge between components
// goes from a later to an earlier component in the returned slice), each
// component sorted by node id. Tarjan's algorithm, iterative within the
// recursion via an explicit low-link stack.
//
// SCC structure underlies root analysis: the roots of a graph are exactly
// the members of the unique source component of the condensation when
// that component reaches every other component, and there are no roots
// otherwise. RootsViaSCC (and the multi-word sccRootsSet behind RootsSet)
// implements that characterization; the test suite cross-validates it
// against the reachability-based Roots.
func (g Graph) SCCs() [][]int {
	n, w := g.n, g.Words()
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	counter := 0

	// Out-neighbor rows once (the transpose of the in-rows), for edge
	// iteration.
	out := make([]uint64, n*w)
	for j := 0; j < n; j++ {
		row := g.row(j)
		jw, jb := j/wordBits, uint64(1)<<uint(j%wordBits)
		for wi, m := range row {
			base := wi * wordBits
			for m != 0 {
				i := base + bits.TrailingZeros64(m)
				m &= m - 1
				out[i*w+jw] |= jb
			}
		}
	}

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for wi, m := range out[v*w : (v+1)*w] {
			base := wi * wordBits
			for m != 0 {
				u := base + bits.TrailingZeros64(m)
				m &= m - 1
				if u == v {
					continue
				}
				if index[u] < 0 {
					strongconnect(u)
					if low[u] < low[v] {
						low[v] = low[u]
					}
				} else if onStack[u] && index[u] < low[v] {
					low[v] = index[u]
				}
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[u] = false
				comp = append(comp, u)
				if u == v {
					break
				}
			}
			sort.Ints(comp)
			comps = append(comps, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strongconnect(v)
		}
	}
	return comps
}

// sccRootsSet computes the root set through the condensation for any word
// count: a node is a root iff its component is the unique source of the
// condensation and that component's reachable set covers everything.
func (g Graph) sccRootsSet() []uint64 {
	comps := g.SCCs()
	empty := make([]uint64, g.Words())
	// Component id per node.
	id := make([]int, g.n)
	for ci, comp := range comps {
		for _, v := range comp {
			id[v] = ci
		}
	}
	// Sources: components with no incoming edge from another component.
	incoming := make([]bool, len(comps))
	for j := 0; j < g.n; j++ {
		for wi, m := range g.row(j) {
			if wi == j/wordBits {
				m &^= 1 << uint(j%wordBits)
			}
			base := wi * wordBits
			for m != 0 {
				i := base + bits.TrailingZeros64(m)
				m &= m - 1
				if id[i] != id[j] {
					incoming[id[j]] = true
				}
			}
		}
	}
	source := -1
	for ci, has := range incoming {
		if !has {
			if source >= 0 {
				return empty // several sources: nobody reaches everyone
			}
			source = ci
		}
	}
	// The single source must reach all nodes.
	rep := comps[source][0]
	if SetCount(g.ReachSet(rep)) != g.n {
		return empty
	}
	return NodesToSet(g.n, comps[source])
}

// RootsViaSCC computes the root set through the condensation: a node is a
// root iff its component reaches every component, which for a DAG holds
// iff the component is the unique source and its reachable set covers
// everything. It returns a single-word mask and panics for n > 64; use
// RootsSet there.
func (g Graph) RootsViaSCC() uint64 {
	g.single("RootsViaSCC")
	return g.sccRootsSet()[0]
}
