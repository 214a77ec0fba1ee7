package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// bfsRoots is the definition of R(G) spelled out: the nodes from which a
// breadth-first search along out-edges reaches every node.
func bfsRoots(g Graph) []int {
	n := g.N()
	outs := make([][]int, n)
	for i := range outs {
		outs[i] = g.Out(i)
	}
	roots := []int{}
	for r := 0; r < n; r++ {
		seen := make([]bool, n)
		seen[r] = true
		queue, reached := []int{r}, 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range outs[v] {
				if !seen[u] {
					seen[u] = true
					reached++
					queue = append(queue, u)
				}
			}
		}
		if reached == n {
			roots = append(roots, r)
		}
	}
	return roots
}

// reversedPath is n-1 -> n-2 -> ... -> 0, rooted at n-1 only.
func reversedPath(n int) Graph {
	b := NewBuilder(n)
	for i := n - 1; i > 0; i-- {
		b.Edge(i, i-1)
	}
	return b.Graph()
}

// TestRootsMatchReachability checks RootsSet and IsRooted against
// bfsRoots on every graph of up to four nodes, and on random and
// structured graphs at every width, including the word boundaries
// 63/64/65 and multi-word rows.
func TestRootsMatchReachability(t *testing.T) {
	for n := 1; n <= 4; n++ {
		all, err := EnumerateAll(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range all {
			want := bfsRoots(g)
			if got := SetToNodes(g.RootsSet()); !slices.Equal(got, want) || g.IsRooted() != (len(want) > 0) {
				t.Fatalf("%v: RootsSet = %v, IsRooted = %v, want roots %v", g, got, g.IsRooted(), want)
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 5, 16, 63, 64, 65, 130, 256} {
		gs := map[string]Graph{
			"path":          PathGraph(n),
			"reversed-path": reversedPath(n),
			"cycle":         Cycle(n),
			"star-last":     Star(n, n-1),
			"identity":      New(n),
			"complete":      Complete(n),
		}
		trials := 3
		if n > 64 {
			trials = 1
		}
		for _, p := range []float64{0, 1 / float64(n), 2 / float64(n), 0.1, 0.3, 0.7} {
			for k := 0; k < trials; k++ {
				gs[fmt.Sprintf("random-p%.3g-%d", p, k)] = Random(rng, n, p)
			}
		}
		for name, g := range gs {
			want := bfsRoots(g)
			if got := SetToNodes(g.RootsSet()); !slices.Equal(got, want) {
				t.Errorf("n=%d %s: RootsSet = %v, want %v", n, name, got, want)
			}
			if got := g.IsRooted(); got != (len(want) > 0) {
				t.Errorf("n=%d %s: IsRooted = %v, want %v", n, name, got, len(want) > 0)
			}
		}
	}
}
