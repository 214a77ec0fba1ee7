package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestEdgesOrderingAndCount(t *testing.T) {
	g := MustFromEdges(4, [2]int{2, 1}, [2]int{0, 3}, [2]int{0, 1}, [2]int{3, 0})
	edges := g.Edges()
	want := [][2]int{{0, 1}, {0, 3}, {2, 1}, {3, 0}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("Edges[%d] = %v, want %v (sorted order)", i, edges[i], want[i])
		}
	}
	if g.EdgeCount() != 4+4 { // 4 listed + 4 self-loops
		t.Errorf("EdgeCount = %d, want 8", g.EdgeCount())
	}
}

func TestSingletonGraphRendering(t *testing.T) {
	g := New(1)
	if got := g.String(); got != "G(1){}" {
		t.Errorf("String = %q", got)
	}
	dot := g.DOT("solo")
	if !strings.Contains(dot, "digraph solo") || strings.Contains(dot, "->") {
		t.Errorf("DOT for singleton: %s", dot)
	}
	if !g.IsRooted() || !g.IsNonSplit() || !g.IsComplete() {
		t.Error("singleton graph predicates wrong")
	}
}

// TestDeafIdempotent: making an agent deaf twice equals once, and making
// everyone deaf yields the identity graph.
func TestDeafIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		g := Random(rng, n, 0.5)
		i := rng.Intn(n)
		once := Deaf(g, i)
		twice := Deaf(once, i)
		if !once.Equal(twice) {
			t.Fatalf("Deaf not idempotent on %v", g)
		}
		all := g
		for j := 0; j < n; j++ {
			all = Deaf(all, j)
		}
		if !all.Equal(New(n)) {
			t.Fatalf("deafening everyone should give the identity graph, got %v", all)
		}
	}
}

// TestProductRootMonotonicity: the roots of a product of two graphs
// sharing a common root r include r.
func TestProductRootMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		r := rng.Intn(n)
		mk := func() Graph {
			b := NewBuilder(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j && rng.Float64() < 0.3 {
						b.Edge(i, j)
					}
				}
			}
			order := rng.Perm(n)
			for k, v := range order {
				if v == r {
					order[0], order[k] = order[k], order[0]
				}
			}
			for k := 1; k < n; k++ {
				b.Edge(order[rng.Intn(k)], order[k])
			}
			return b.Graph()
		}
		g, h := mk(), mk()
		if !slices.Contains(rootNodes(g), r) || !slices.Contains(rootNodes(h), r) {
			t.Fatal("construction broken: r not a root")
		}
		p := Product(g, h)
		if !slices.Contains(rootNodes(p), r) {
			t.Fatalf("common root %d lost in product", r)
		}
	}
}
