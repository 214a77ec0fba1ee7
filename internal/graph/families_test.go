package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestHFamilyMatchesFigure1(t *testing.T) {
	h0, h1, h2 := H(0), H(1), H(2)
	if !h0.HasEdge(0, 1) || !h0.HasEdge(1, 0) {
		t.Error("H0 should have both cross edges")
	}
	if !h1.HasEdge(0, 1) || h1.HasEdge(1, 0) {
		t.Error("H1 should have only 0->1")
	}
	if !h2.HasEdge(1, 0) || h2.HasEdge(0, 1) {
		t.Error("H2 should have only 1->0")
	}
	// Agent 0 is deaf in H1, agent 1 is deaf in H2 (paper, Theorem 1 proof).
	if !h1.IsDeaf(0) {
		t.Error("agent 0 should be deaf in H1")
	}
	if !h2.IsDeaf(1) {
		t.Error("agent 1 should be deaf in H2")
	}
	for k, g := range HFamily() {
		if !g.IsRooted() {
			t.Errorf("H%d not rooted", k)
		}
		if !g.IsNonSplit() {
			t.Errorf("H%d not non-split", k)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("H(3) did not panic")
			}
		}()
		H(3)
	}()
}

// TestHFamilyIsAllRootedTwoAgentGraphs checks the paper's remark that for
// n = 2 there are exactly three rooted communication graphs, all non-split.
func TestHFamilyIsAllRootedTwoAgentGraphs(t *testing.T) {
	rooted, err := EnumerateRooted(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rooted) != 3 {
		t.Fatalf("got %d rooted graphs on 2 nodes, want 3", len(rooted))
	}
	for _, g := range rooted {
		found := false
		for _, h := range HFamily() {
			if g.Equal(h) {
				found = true
			}
		}
		if !found {
			t.Errorf("rooted 2-agent graph %v is not an H graph", g)
		}
		if !g.IsNonSplit() {
			t.Errorf("rooted 2-agent graph %v should be non-split", g)
		}
	}
}

func TestDeaf(t *testing.T) {
	g := Complete(4)
	f2 := Deaf(g, 2)
	if !f2.IsDeaf(2) {
		t.Error("agent 2 should be deaf in Deaf(K4, 2)")
	}
	for i := 0; i < 4; i++ {
		if i != 2 && !RowsEqual(f2, g, i) {
			t.Errorf("Deaf changed in-neighbors of %d", i)
		}
	}
	// Deaf must not mutate the original.
	if !g.IsComplete() {
		t.Error("Deaf mutated its argument")
	}
	fam := DeafFamily(g)
	if len(fam) != 4 {
		t.Fatalf("DeafFamily length %d, want 4", len(fam))
	}
	for i, f := range fam {
		if !f.IsDeaf(i) {
			t.Errorf("agent %d not deaf in F_%d", i, i)
		}
		if !f.IsRooted() {
			t.Errorf("F_%d of K4 should be rooted (the deaf agent is a root)", i)
		}
		if !f.IsNonSplit() {
			t.Errorf("F_%d of K4 should be non-split", i)
		}
	}
}

// TestDeafFamilyPairwiseInNeighborStructure checks the structural fact the
// Theorem 2 proof rests on: agent i is deaf in F_i and has the same
// in-neighbors in all F_j with j != i.
func TestDeafFamilyPairwiseInNeighborStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(5)
		g := Random(rng, n, 0.5)
		fam := DeafFamily(g)
		for i := 0; i < n; i++ {
			if !fam[i].IsDeaf(i) {
				t.Fatalf("agent %d not deaf in F_%d", i, i)
			}
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if !RowsEqual(fam[j], g, i) {
					t.Fatalf("agent %d in-neighbors differ between G and F_%d", i, j)
				}
			}
		}
	}
}

func TestPsiStructure(t *testing.T) {
	for _, n := range []int{4, 5, 6, 8} {
		for i := 0; i < 3; i++ {
			psi := Psi(n, i)
			if !psi.IsDeaf(i) {
				t.Errorf("n=%d: trio agent %d should be deaf in Psi_%d", n, i, i)
			}
			if got := rootNodes(psi); !slices.Equal(got, []int{i}) {
				t.Errorf("n=%d: Psi_%d roots = %v, want only agent %d", n, i, got, i)
			}
			// All trio agents feed node 3.
			for u := 0; u < 3; u++ {
				if !psi.HasEdge(u, 3) {
					t.Errorf("n=%d: Psi_%d missing edge %d->3", n, i, u)
				}
			}
			// The two non-i trio agents hear the last node.
			for u := 0; u < 3; u++ {
				want := u != i
				if got := psi.HasEdge(n-1, u); got != want {
					t.Errorf("n=%d: Psi_%d edge (n-1)->%d = %v, want %v", n, i, u, got, want)
				}
			}
			// Path along 3..n-1.
			for j := 3; j+1 <= n-1; j++ {
				if !psi.HasEdge(j, j+1) {
					t.Errorf("n=%d: Psi_%d missing path edge %d->%d", n, i, j, j+1)
				}
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Psi(3, 0) did not panic")
			}
		}()
		Psi(3, 0)
	}()
}

// TestPsiFigure2 pins the exact edge set for n = 6, i = 0, matching
// Figure 2 of the paper (nodes relabeled 1..6 -> 0..5, i=0, j=1, l=2).
func TestPsiFigure2(t *testing.T) {
	want := MustFromEdges(6,
		[2]int{0, 3}, [2]int{1, 3}, [2]int{2, 3}, // trio feeds 4 (paper numbering)
		[2]int{3, 4}, [2]int{4, 5}, // path 4->5->6
		[2]int{5, 1}, [2]int{5, 2}, // 6 feeds j and l
	)
	if got := Psi(6, 0); !got.Equal(want) {
		t.Errorf("Psi(6,0) = %v, want %v", got, want)
	}
}

func TestSigmaBlock(t *testing.T) {
	block := SigmaBlock(6, 1)
	if len(block) != 4 {
		t.Fatalf("SigmaBlock(6,1) length %d, want n-2 = 4", len(block))
	}
	for _, g := range block {
		if !g.Equal(Psi(6, 1)) {
			t.Errorf("sigma block member differs from Psi_1")
		}
	}
	// The product over a sigma block is rooted (information from the root
	// has spread); this is what makes concatenations of sigma blocks valid
	// rooted communication patterns.
	p := ProductAll(block...)
	if !p.IsRooted() {
		t.Errorf("product over sigma block not rooted: %v", p)
	}
}

func TestSilenceBlock(t *testing.T) {
	n, f := 6, 2
	q := NumBlocks(n, f)
	if q != 3 {
		t.Fatalf("NumBlocks(6,2) = %d, want 3", q)
	}
	for r := 0; r < q; r++ {
		k := SilenceBlock(n, f, r)
		if k.MinInDegree() < n-f {
			t.Errorf("K_%d has min in-degree %d < n-f", r, k.MinInDegree())
		}
		block := []int{r * f, r*f + 1}
		want := slices.DeleteFunc(allNodes(n), func(i int) bool { return slices.Contains(block, i) })
		if got := rootNodes(k); !slices.Equal(got, want) {
			t.Errorf("K_%d roots = %v, want %v", r, got, want)
		}
		// Nobody outside the block hears the block.
		for _, i := range want {
			for _, b := range block {
				if k.HasEdge(b, i) {
					t.Errorf("K_%d: node %d hears the silenced block", r, i)
				}
			}
		}
	}
	// Ragged last block: n=5, f=2 -> blocks {0,1},{2,3},{4}.
	k2 := SilenceBlock(5, 2, 2)
	if k2.HasEdge(4, 0) {
		t.Error("SilenceBlock(5,2,2): node 0 still hears node 4")
	}
}

func TestLemma24Chain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ n, f int }{{4, 1}, {6, 2}, {9, 3}, {7, 2}}
	for _, tc := range cases {
		g := RandomMinInDegree(rng, tc.n, tc.f)
		h := RandomMinInDegree(rng, tc.n, tc.f)
		hs, ks, err := Lemma24Chain(g, h, tc.f)
		if err != nil {
			t.Fatalf("n=%d f=%d: %v", tc.n, tc.f, err)
		}
		q := NumBlocks(tc.n, tc.f)
		if len(hs) != q+1 || len(ks) != q {
			t.Fatalf("n=%d f=%d: chain lengths %d/%d, want %d/%d", tc.n, tc.f, len(hs), len(ks), q+1, q)
		}
		if !hs[0].Equal(g) || !hs[q].Equal(h) {
			t.Errorf("n=%d f=%d: chain endpoints wrong", tc.n, tc.f)
		}
		for _, x := range hs {
			if x.MinInDegree() < tc.n-tc.f {
				t.Errorf("n=%d f=%d: chain member leaves N_A", tc.n, tc.f)
			}
		}
		// The alpha witness property: consecutive members agree on the
		// in-neighborhoods of all roots of K_r.
		for r := 1; r <= q; r++ {
			roots := ks[r-1].RootsSet()
			if !InsOnSet(hs[r-1], hs[r], roots) {
				t.Errorf("n=%d f=%d: H_%d and H_%d disagree on roots of K_%d", tc.n, tc.f, r-1, r, r)
			}
		}
	}
	// Error paths.
	if _, _, err := Lemma24Chain(Complete(4), Complete(5), 1); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, _, err := Lemma24Chain(Complete(4), Complete(4), 2); err == nil {
		t.Error("f >= n/2 accepted")
	}
	if _, _, err := Lemma24Chain(New(4), Complete(4), 1); err == nil {
		t.Error("in-degree violation accepted")
	}
}

func TestEnumerateCounts(t *testing.T) {
	all1, err := EnumerateAll(1)
	if err != nil || len(all1) != 1 {
		t.Fatalf("EnumerateAll(1) = %d graphs, err %v; want 1", len(all1), err)
	}
	all2, err := EnumerateAll(2)
	if err != nil || len(all2) != 4 {
		t.Fatalf("EnumerateAll(2) = %d graphs, err %v; want 4", len(all2), err)
	}
	all3, err := EnumerateAll(3)
	if err != nil || len(all3) != 64 {
		t.Fatalf("EnumerateAll(3) = %d graphs, err %v; want 64", len(all3), err)
	}
	// Deduplicate by mask key to make sure enumeration has no repeats.
	seen := map[string]bool{}
	for _, g := range all3 {
		k := string(g.AppendMaskKey(nil))
		if seen[k] {
			t.Fatalf("duplicate graph %v in enumeration", g)
		}
		seen[k] = true
	}
	if _, err := EnumerateAll(6); err == nil {
		t.Error("EnumerateAll(6) should refuse")
	}
	ns3, err := EnumerateNonSplit(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range ns3 {
		if !g.IsNonSplit() {
			t.Fatalf("EnumerateNonSplit returned split graph %v", g)
		}
	}
	rooted3, err := EnumerateRooted(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rooted3) <= len(ns3) {
		t.Errorf("rooted graphs (%d) should strictly outnumber non-split ones (%d) at n=3",
			len(rooted3), len(ns3))
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(7)
		if g := RandomRooted(rng, n, 0.4); !g.IsRooted() {
			t.Fatal("RandomRooted returned unrooted graph")
		}
		if g := RandomNonSplit(rng, n, 0.3); !g.IsNonSplit() {
			t.Fatal("RandomNonSplit returned split graph")
		}
		f := 1 + rng.Intn(n-1)
		if g := RandomMinInDegree(rng, n, f); g.MinInDegree() < n-f {
			t.Fatalf("RandomMinInDegree(%d,%d) violated degree bound", n, f)
		}
	}
	// Determinism under a fixed seed.
	a := Random(rand.New(rand.NewSource(42)), 5, 0.5)
	b := Random(rand.New(rand.NewSource(42)), 5, 0.5)
	if !a.Equal(b) {
		t.Error("Random not deterministic under fixed seed")
	}
}

// TestRandomRootedTinyP: under an edge probability no sample is rooted
// at, RandomRooted roots its last sample once the coin budget is spent,
// as a function of the RNG's state.
func TestRandomRootedTinyP(t *testing.T) {
	for _, n := range []int{2, 16, 64, 256} {
		g := RandomRooted(rand.New(rand.NewSource(int64(n))), n, 1e-9)
		if !g.IsRooted() {
			t.Errorf("RandomRooted(%d, 1e-9) = %v is not rooted", n, g)
		}
		if again := RandomRooted(rand.New(rand.NewSource(int64(n))), n, 1e-9); !again.Equal(g) {
			t.Errorf("n=%d: same seed, different graphs", n)
		}
	}
}

// TestRandomRootedSampleBudget bounds the samples one call draws under a
// p no sample is rooted at: each sample is charged its n(n-1) coins plus
// rootedSampleCost, so at n = 2 a call stops after 15,888 samples where
// charging coins alone took 2^19. A counting source sees every draw: n(n-1)
// per sample, and one for the fallback's root.
func TestRandomRootedSampleBudget(t *testing.T) {
	for _, tc := range []struct{ n, samples int }{{2, 15888}, {3, 14980}, {8, 8739}, {64, 256}} {
		src := &countingSource{Source: rand.NewSource(int64(tc.n))}
		if g := RandomRooted(rand.New(src), tc.n, 1e-9); !g.IsRooted() {
			t.Fatalf("RandomRooted(%d, 1e-9) = %v is not rooted", tc.n, g)
		}
		coins := tc.n * (tc.n - 1)
		if samples := (src.draws - 1) / coins; samples != tc.samples || (src.draws-1)%coins != 0 {
			t.Errorf("n=%d: %d draws, %d samples; want %d samples", tc.n, src.draws, samples, tc.samples)
		}
	}
}

// countingSource counts the draws made from a rand.Source.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(3)
	g1 := b.Edge(0, 1).Graph()
	g2 := b.Edge(1, 2).Graph()
	if g1.HasEdge(1, 2) {
		t.Error("builder snapshot g1 was mutated by later Edge call")
	}
	if !g2.HasEdge(0, 1) || !g2.HasEdge(1, 2) {
		t.Error("builder lost accumulated edges")
	}
}
