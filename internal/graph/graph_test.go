package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// rootNodes lists g's roots in ascending order.
func rootNodes(g Graph) []int { return SetToNodes(g.RootsSet()) }

// allNodes lists 0..n-1.
func allNodes(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

func TestNewIsIdentity(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64, 65} {
		g := New(n)
		if g.N() != n {
			t.Fatalf("N() = %d, want %d", g.N(), n)
		}
		for i := 0; i < n; i++ {
			if got := g.InRow(i); !SetsEqual(got, NodesToSet(n, []int{i})) {
				t.Errorf("n=%d: InRow(%d) = %x, want self-loop only", n, i, got)
			}
			if !g.HasEdge(i, i) {
				t.Errorf("n=%d: missing self-loop at %d", n, i)
			}
		}
		if g.EdgeCount() != n {
			t.Errorf("n=%d: EdgeCount = %d, want %d self-loops", n, g.EdgeCount(), n)
		}
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, -1, MaxNodes + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestCompleteProperties(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		g := Complete(n)
		if !g.IsComplete() {
			t.Errorf("Complete(%d) not complete", n)
		}
		if !g.IsRooted() {
			t.Errorf("Complete(%d) not rooted", n)
		}
		if !g.IsNonSplit() {
			t.Errorf("Complete(%d) not non-split", n)
		}
		if got := rootNodes(g); !slices.Equal(got, allNodes(n)) {
			t.Errorf("Complete(%d): roots = %v, want all", n, got)
		}
	}
}

func TestCyclePathStar(t *testing.T) {
	c := Cycle(4)
	if got := rootNodes(c); !c.IsRooted() || !slices.Equal(got, allNodes(4)) {
		t.Errorf("Cycle(4): every node should be a root, got %v", got)
	}
	p := PathGraph(4)
	if got := rootNodes(p); !slices.Equal(got, []int{0}) {
		t.Errorf("PathGraph(4): only node 0 should be a root, got %v", got)
	}
	s := Star(5, 2)
	if got := rootNodes(s); !slices.Equal(got, []int{2}) {
		t.Errorf("Star(5,2): only center should be a root, got %v", got)
	}
	if s.IsNonSplit() != true {
		t.Errorf("Star(5,2) should be non-split (center feeds everyone)")
	}
	if got := len(s.Out(2)); got != 5 {
		t.Errorf("Star(5,2): center out-degree = %d, want 5", got)
	}
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges(3, [2]int{0, 3}); err == nil {
		t.Error("FromEdges accepted out-of-range target")
	}
	if _, err := FromEdges(3, [2]int{-1, 0}); err == nil {
		t.Error("FromEdges accepted negative source")
	}
	g, err := FromEdges(3, [2]int{0, 1}, [2]int{1, 2})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(2, 0) {
		t.Errorf("FromEdges wrong edges: %v", g)
	}
}

func TestFromInWordsValidation(t *testing.T) {
	if _, err := FromInWords(2, []uint64{0b01, 0b01}); err == nil {
		t.Error("FromInWords accepted missing self-loop")
	}
	if _, err := FromInWords(2, []uint64{0b101, 0b10}); err == nil {
		t.Error("FromInWords accepted a bit at node 2 of 2")
	}
	if _, err := FromInWords(2, []uint64{0b01}); err == nil {
		t.Error("FromInWords accepted wrong word count")
	}
	g, err := FromInWords(2, []uint64{0b11, 0b10})
	if err != nil {
		t.Fatalf("FromInWords: %v", err)
	}
	if !g.Equal(H(2)) {
		t.Errorf("FromInWords = %v, want H2", g)
	}
	// n = 65: two words per row, one live bit in the tail word.
	words := make([]uint64, 65*2)
	for i := 0; i < 65; i++ {
		words[2*i+i/64] |= 1 << uint(i%64)
	}
	if g, err := FromInWords(65, words); err != nil || !g.Equal(New(65)) {
		t.Fatalf("FromInWords(65, identity rows) = %v, %v", g, err)
	}
	words[2*3+1] |= 1 << 1 // node 65 in row 3
	if _, err := FromInWords(65, words); err == nil {
		t.Error("FromInWords accepted a bit at node 65 of 65")
	}
	words[2*3+1] &^= 1 << 1
	words[2*64+1] &^= 1 // row 64 loses its self-loop
	if _, err := FromInWords(65, words); err == nil {
		t.Error("FromInWords accepted a missing self-loop in the tail word")
	}
	if _, err := FromInWords(65, words[:65]); err == nil {
		t.Error("FromInWords accepted one word per row at n=65")
	}
}

func TestInOutConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(7)
		g := Random(rng, n, 0.5)
		for i := 0; i < n; i++ {
			for _, j := range g.Out(i) {
				if !g.HasEdge(i, j) {
					t.Fatalf("Out(%d) lists %d but edge absent", i, j)
				}
			}
			for _, j := range g.In(i) {
				if !g.HasEdge(j, i) {
					t.Fatalf("In(%d) lists %d but edge absent", i, j)
				}
			}
			if g.OutDegree(i) != len(g.Out(i)) {
				t.Fatalf("OutDegree/Out mismatch at %d", i)
			}
			if g.InDegree(i) != len(g.In(i)) {
				t.Fatalf("InDegree/In mismatch at %d", i)
			}
		}
	}
}

func TestProductDefinition(t *testing.T) {
	// Edge (i,j) in G∘H iff exists k: (i,k) in G and (k,j) in H.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		g := Random(rng, n, 0.4)
		h := Random(rng, n, 0.4)
		p := Product(g, h)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := false
				for k := 0; k < n; k++ {
					if g.HasEdge(i, k) && h.HasEdge(k, j) {
						want = true
						break
					}
				}
				if p.HasEdge(i, j) != want {
					t.Fatalf("product edge (%d,%d): got %v want %v\nG=%v\nH=%v", i, j, p.HasEdge(i, j), want, g, h)
				}
			}
		}
	}
}

func TestProductAssociativeAndIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		a := Random(rng, n, 0.4)
		b := Random(rng, n, 0.4)
		c := Random(rng, n, 0.4)
		left := Product(Product(a, b), c)
		right := Product(a, Product(b, c))
		if !left.Equal(right) {
			t.Fatalf("product not associative for\n%v\n%v\n%v", a, b, c)
		}
		id := New(n)
		if !Product(id, a).Equal(a) || !Product(a, id).Equal(a) {
			t.Fatalf("identity graph is not a product identity for %v", a)
		}
	}
}

// TestProductOfRootedIsNonSplit machine-checks the substrate theorem from
// Charron-Bost et al. (ICALP'15) that the paper relies on: any product of
// n-1 rooted graphs with n nodes is non-split.
func TestProductOfRootedIsNonSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3, 4, 5, 6, 7} {
		for trial := 0; trial < 25; trial++ {
			gs := make([]Graph, n-1)
			for i := range gs {
				gs[i] = RandomRooted(rng, n, 0.3)
			}
			p := ProductAll(gs...)
			if !p.IsNonSplit() {
				t.Fatalf("n=%d: product of %d rooted graphs splits: %v", n, n-1, p)
			}
		}
	}
}

func TestRootsExamples(t *testing.T) {
	tests := []struct {
		name  string
		g     Graph
		roots []int
	}{
		{"identity2", New(2), []int{}},
		{"H0", H(0), []int{0, 1}},
		{"H1", H(1), []int{0}},
		{"H2", H(2), []int{1}},
		{"path3", PathGraph(3), []int{0}},
		{"two-cliques", MustFromEdges(4, [2]int{0, 1}, [2]int{1, 0}, [2]int{2, 3}, [2]int{3, 2}), []int{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := rootNodes(tt.g); !slices.Equal(got, tt.roots) {
				t.Errorf("roots of %v = %v, want %v", tt.g, got, tt.roots)
			}
			if tt.g.IsRooted() != (len(tt.roots) > 0) {
				t.Errorf("IsRooted(%v) = %v", tt.g, tt.g.IsRooted())
			}
		})
	}
}

func TestNonSplitExamples(t *testing.T) {
	tests := []struct {
		name string
		g    Graph
		want bool
	}{
		{"identity3", New(3), false},
		{"complete3", Complete(3), true},
		{"H0", H(0), true},
		{"H1", H(1), true}, // 0 is common in-neighbor of both
		{"H2", H(2), true},
		{"star", Star(4, 0), true},
		// Cycle(3): in(0) = {2,0}, in(1) = {0,1}, in(2) = {1,2}.
		// Pairs: (0,1) share 0, (0,2) share 2, (1,2) share 1 -> non-split.
		{"cycle3", Cycle(3), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.IsNonSplit(); got != tt.want {
				t.Errorf("IsNonSplit(%v) = %v, want %v", tt.g, got, tt.want)
			}
		})
	}
	// A genuinely split graph: two disjoint self-feeding pairs.
	split := MustFromEdges(4, [2]int{0, 1}, [2]int{2, 3})
	if split.IsNonSplit() {
		t.Errorf("disjoint pairs graph should split")
	}
}

func TestNonSplitImpliesRooted(t *testing.T) {
	// Every non-split graph is rooted (folklore; the converse fails).
	all, err := EnumerateAll(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range all {
		if g.IsNonSplit() && !g.IsRooted() {
			t.Fatalf("non-split graph %v is not rooted", g)
		}
	}
}

func TestInsOnSet(t *testing.T) {
	g := MustFromEdges(3, [2]int{0, 1}, [2]int{2, 1})
	h := MustFromEdges(3, [2]int{0, 1}, [2]int{2, 1}, [2]int{1, 0})
	if !InsOnSet(g, h, NodesToSet(3, []int{1, 2})) {
		t.Error("g,h agree on nodes 1,2 but InsOnSet says no")
	}
	if InsOnSet(g, h, NodesToSet(3, []int{0})) {
		t.Error("g,h differ on node 0 but InsOnSet says yes")
	}
	if !InsOnSet(g, h, NodesToSet(3, nil)) {
		t.Error("InsOnSet on the empty set should be true")
	}
	if InsOnSet(g, Complete(4), NodesToSet(4, nil)) {
		t.Error("InsOnSet across sizes should be false")
	}
	// n = 130: the rows differ only at node 129, in the third word.
	g = Star(130, 0)
	h = MustFromEdges(130, append(g.Edges(), [2]int{128, 129})...)
	if !InsOnSet(g, h, NodesToSet(130, []int{0, 64, 128})) {
		t.Error("n=130: g,h agree off node 129 but InsOnSet says no")
	}
	if InsOnSet(g, h, NodesToSet(130, []int{129})) {
		t.Error("n=130: g,h differ on node 129 but InsOnSet says yes")
	}
}

func TestStringAndDOT(t *testing.T) {
	g := MustFromEdges(3, [2]int{0, 1}, [2]int{1, 2})
	if got, want := g.String(), "G(3){0->1 1->2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	dot := g.DOT("g")
	for _, frag := range []string{"digraph g {", "0 -> 1;", "1 -> 2;"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
}
