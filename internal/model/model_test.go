package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestNewDeduplicates(t *testing.T) {
	m, err := New(graph.H(0), graph.H(1), graph.H(0), graph.H(2), graph.H(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3", m.Size())
	}
	if m.N() != 2 {
		t.Fatalf("N = %d, want 2", m.N())
	}
	for k := 0; k < 3; k++ {
		if !m.Contains(graph.H(k)) {
			t.Errorf("model should contain H%d", k)
		}
		if m.Index(graph.H(k)) != k {
			t.Errorf("Index(H%d) = %d, want %d (first-occurrence order)", k, m.Index(graph.H(k)), k)
		}
	}
	if m.Contains(graph.New(2)) {
		t.Error("model should not contain the identity graph")
	}
	if m.Index(graph.New(2)) != -1 {
		t.Error("Index of absent graph should be -1")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty model accepted")
	}
	if _, err := New(graph.Complete(2), graph.Complete(3)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestPredicates(t *testing.T) {
	two := TwoAgent()
	if !two.IsRooted() || !two.IsNonSplit() {
		t.Error("TwoAgent model should be rooted and non-split")
	}
	withIdentity := MustNew(graph.H(0), graph.New(2))
	if withIdentity.IsRooted() {
		t.Error("model containing the identity graph is not rooted")
	}
	psi := PsiModel(6)
	if !psi.IsRooted() {
		t.Error("Psi model should be rooted")
	}
	if psi.IsNonSplit() {
		t.Error("Psi graphs are not non-split (the deaf trio agent splits from the path head)")
	}
}

func TestSub(t *testing.T) {
	m := TwoAgent()
	s := m.Sub([]int{0, 2})
	if s.Size() != 2 || !s.Contains(graph.H(0)) || !s.Contains(graph.H(2)) || s.Contains(graph.H(1)) {
		t.Errorf("Sub([0,2]) wrong: %v", s)
	}
}

func TestAlphaRelated(t *testing.T) {
	// In the two-agent model: H1 has roots {0}, H2 has roots {1},
	// H0 has roots {0,1}.
	h0, h1, h2 := graph.H(0), graph.H(1), graph.H(2)
	// H0 and H1 agree on agent 1's in-neighborhood ({0,1}), and agent 1 is
	// the root of H2 -> H0 alpha_{N,H2} H1.
	if !AlphaRelated(h0, h1, h2) {
		t.Error("H0 and H1 should be alpha-related with witness H2")
	}
	// H0 and H2 agree on agent 0's in-neighborhood, root of H1.
	if !AlphaRelated(h0, h2, h1) {
		t.Error("H0 and H2 should be alpha-related with witness H1")
	}
	// H1 and H2 differ on both agents' in-neighborhoods; H0 has both
	// agents as roots, so no relation with witness H0.
	if AlphaRelated(h1, h2, h0) {
		t.Error("H1 and H2 should not be alpha-related with witness H0")
	}
	// ... and not with the one-root witnesses either (they still disagree
	// on the root's in-neighborhood).
	if AlphaRelated(h1, h2, h1) || AlphaRelated(h1, h2, h2) {
		t.Error("H1 and H2 should not be one-step alpha-related at all")
	}
	// Reflexivity.
	if !AlphaRelated(h1, h1, h0) {
		t.Error("alpha should be reflexive")
	}
}

func TestTwoAgentAlphaDiameter(t *testing.T) {
	// The paper states after Definition 22 that D = 2 for {H0, H1, H2}.
	d, finite := TwoAgent().AlphaDiameter()
	if !finite {
		t.Fatal("TwoAgent alpha-diameter should be finite")
	}
	if d != 2 {
		t.Errorf("TwoAgent alpha-diameter = %d, want 2", d)
	}
}

func TestDeafModelAlphaDiameter(t *testing.T) {
	// The paper states after Definition 22 that D = 1 for deaf(G).
	for _, n := range []int{3, 4, 5} {
		m := DeafModel(graph.Complete(n))
		d, finite := m.AlphaDiameter()
		if !finite {
			t.Fatalf("n=%d: deaf model alpha-diameter should be finite", n)
		}
		if d != 1 {
			t.Errorf("n=%d: deaf model alpha-diameter = %d, want 1", n, d)
		}
	}
}

func TestAlphaDiameterSingleton(t *testing.T) {
	m := MustNew(graph.Complete(3))
	d, finite := m.AlphaDiameter()
	if !finite || d != 1 {
		t.Errorf("singleton model: d=%d finite=%v, want 1,true (Definition 22 floor)", d, finite)
	}
}

func TestAlphaDiameterInfinite(t *testing.T) {
	// Two star graphs with different centers: the only roots are the
	// centers, and the graphs disagree on every node's in-neighborhood
	// except their own centers'... construct a genuinely disconnected pair:
	// g = star at 0, h = star at 1. Roots(g) = {0}, Roots(h) = {1}.
	// alpha_{.,g}: need In_0 equal: In_0(g) = {0}, In_0(h) = {0,1} -> no.
	// alpha_{.,h}: In_1(g) = {0,1}, In_1(h) = {1} -> no.
	g := graph.Star(3, 0)
	h := graph.Star(3, 1)
	m := MustNew(g, h)
	if _, finite := m.AlphaDiameter(); finite {
		t.Error("two disagreeing stars should have infinite alpha-diameter")
	}
	classes := m.AlphaClasses()
	if len(classes) != 2 {
		t.Errorf("expected 2 alpha classes, got %v", classes)
	}
}

func TestBetaClassesTwoAgent(t *testing.T) {
	// For {H0, H1, H2}: alpha* connects everything (H0-H1 via H2, H0-H2
	// via H1). The closure property survives refinement with in-class
	// witnesses, so there is a single beta-class; it is source-incompatible
	// (roots {0,1} ∩ {0} ∩ {1} = ∅), so exact consensus is unsolvable —
	// consistent with Theorem 1's positive contraction bound.
	m := TwoAgent()
	classes := m.BetaClasses()
	if len(classes) != 1 || len(classes[0]) != 3 {
		t.Fatalf("TwoAgent beta classes = %v, want one class of 3", classes)
	}
	if !m.SourceIncompatible(classes[0]) {
		t.Error("TwoAgent beta class should be source-incompatible")
	}
	if m.ExactConsensusSolvable() {
		t.Error("exact consensus should be unsolvable in TwoAgent model")
	}
}

func TestBetaClassesDeafModel(t *testing.T) {
	for _, n := range []int{3, 4} {
		m := DeafModel(graph.Complete(n))
		classes := m.BetaClasses()
		if len(classes) != 1 {
			t.Fatalf("n=%d: deaf model beta classes = %v, want single class", n, classes)
		}
		if !m.SourceIncompatible(classes[0]) {
			t.Errorf("n=%d: deaf class should be source-incompatible", n)
		}
		if m.ExactConsensusSolvable() {
			t.Errorf("n=%d: exact consensus should be unsolvable in deaf model", n)
		}
	}
}

func TestExactConsensusSolvableCases(t *testing.T) {
	// A singleton rooted model: solvable (the fixed graph's roots are
	// common). This matches the classical fixed-topology result.
	m := MustNew(graph.Star(4, 0))
	if !m.ExactConsensusSolvable() {
		t.Error("singleton star model should allow exact consensus")
	}
	// All graphs share root 0: solvable regardless of class structure.
	m2 := MustNew(
		graph.Star(3, 0),
		graph.MustFromEdges(3, [2]int{0, 1}, [2]int{1, 2}),
		graph.Complete(3),
	)
	if !m2.ExactConsensusSolvable() {
		t.Error("common-root model should allow exact consensus")
	}
	// Two disagreeing stars: two beta classes, each a singleton with a
	// common root -> solvable even though the union of roots is empty.
	m3 := MustNew(graph.Star(3, 0), graph.Star(3, 1))
	if !m3.ExactConsensusSolvable() {
		t.Error("disconnected-star model should allow exact consensus")
	}
}

func TestBetaRefinementStrictlyRefines(t *testing.T) {
	// Construct a model where alpha* merges graphs that beta must split.
	// Take the two stars (mutually alpha-unrelated) plus a bridge graph
	// whose root set is empty -> the bridge relates everything as a
	// witness (In over empty set is vacuously equal), gluing the alpha*
	// classes together; beta refinement with in-class witnesses must then
	// split off the unrooted bridge's gluing power only if consistent.
	bridge := graph.New(3) // identity graph: no roots at all
	m := MustNew(graph.Star(3, 0), graph.Star(3, 1), bridge)
	alpha := m.AlphaClasses()
	if len(alpha) != 1 {
		t.Fatalf("bridge should alpha-glue everything, got %v", alpha)
	}
	beta := m.BetaClasses()
	// The bridge stays a universal witness inside the single class, so
	// beta cannot split it: closure property holds with K = bridge.
	if len(beta) != 1 {
		t.Fatalf("beta classes = %v, want single class (bridge is in-class witness)", beta)
	}
	// With an empty-root witness in its class, the class has empty common
	// roots -> source-incompatible -> exact consensus unsolvable. (The
	// model is not rooted, so not even asymptotic consensus is solvable.)
	if m.ExactConsensusSolvable() {
		t.Error("bridge model should be exact-consensus unsolvable")
	}
}

func TestContractionLowerBoundTwoAgent(t *testing.T) {
	b := TwoAgent().ContractionLowerBound()
	if b.Rate != 1.0/3.0 {
		t.Errorf("TwoAgent bound = %v (%s), want 1/3 via Theorem 1", b.Rate, b.Theorem)
	}
	if b.Theorem != "Theorem 1" {
		t.Errorf("TwoAgent bound theorem = %s, want Theorem 1", b.Theorem)
	}
}

func TestContractionLowerBoundDeaf(t *testing.T) {
	for _, n := range []int{3, 5} {
		b := DeafModel(graph.Complete(n)).ContractionLowerBound()
		if b.Rate != 0.5 {
			t.Errorf("n=%d: deaf bound = %v (%s), want 1/2 via Theorem 2", n, b.Rate, b.Theorem)
		}
	}
	// deaf(G) for a non-complete base graph also qualifies.
	g := graph.MustFromEdges(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0}, [2]int{0, 2}, [2]int{1, 3})
	b := DeafModel(g).ContractionLowerBound()
	if b.Rate != 0.5 {
		t.Errorf("deaf(cycle+) bound = %v (%s), want 1/2", b.Rate, b.Theorem)
	}
}

func TestContractionLowerBoundPsi(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		b := PsiModel(n).ContractionLowerBound()
		want := math.Pow(0.5, 1/float64(n-2))
		if math.Abs(b.Rate-want) > 1e-12 {
			t.Errorf("n=%d: Psi bound = %v (%s), want %v via Theorem 3", n, b.Rate, b.Theorem, want)
		}
		if b.Theorem != "Theorem 3" {
			t.Errorf("n=%d: Psi bound theorem = %s, want Theorem 3", n, b.Theorem)
		}
	}
}

func TestContractionLowerBoundVacuous(t *testing.T) {
	// A non-rooted model has no asymptotic consensus algorithm at all;
	// the bound is flagged vacuous with the trivial rate 1.
	m := MustNew(graph.New(3), graph.Complete(3))
	b := m.ContractionLowerBound()
	if b.Theorem != "vacuous" || b.Rate != 1 {
		t.Errorf("vacuous bound = %+v", b)
	}
}

func TestContractionLowerBoundSolvable(t *testing.T) {
	b := MustNew(graph.Star(4, 0)).ContractionLowerBound()
	if b.Rate != 0 {
		t.Errorf("solvable model bound = %v, want 0", b.Rate)
	}
}

func TestFindDeafTripleOnSupersetModel(t *testing.T) {
	// A model strictly containing deaf(K4) plus unrelated graphs should
	// still be detected.
	gs := graph.DeafFamily(graph.Complete(4))
	gs = append(gs, graph.Cycle(4), graph.Star(4, 2))
	m := MustNew(gs...)
	triple, ok := m.FindDeafTriple()
	if !ok {
		t.Fatal("deaf triple not found in superset model")
	}
	seen := map[int]bool{}
	for k, a := range triple.Agents {
		if !triple.Graphs[k].IsDeaf(a) {
			t.Errorf("witness graph %d not deaf at %d", k, a)
		}
		seen[a] = true
	}
	if len(seen) != 3 {
		t.Errorf("deaf triple agents not distinct: %v", triple.Agents)
	}
	// A model with deaf graphs from *different* bases must not match.
	m2 := MustNew(
		graph.Deaf(graph.Complete(4), 0),
		graph.Deaf(graph.Cycle(4), 1),
		graph.Deaf(graph.Star(4, 3), 2),
	)
	if _, ok := m2.FindDeafTriple(); ok {
		t.Error("inconsistent deaf graphs wrongly matched as a triple")
	}
}

func TestAsyncChainModel(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {6, 2}, {9, 3}, {5, 2}} {
		m, err := AsyncChain(tc.n, tc.f)
		if err != nil {
			t.Fatalf("AsyncChain(%d,%d): %v", tc.n, tc.f, err)
		}
		q := graph.NumBlocks(tc.n, tc.f)
		for _, g := range m.Graphs() {
			if g.MinInDegree() < tc.n-tc.f {
				t.Errorf("n=%d f=%d: member leaves N_A: %v", tc.n, tc.f, g)
			}
		}
		d, finite := m.AlphaDiameter()
		if !finite {
			t.Fatalf("n=%d f=%d: AsyncChain alpha-diameter infinite", tc.n, tc.f)
		}
		// The model chains q+1 anchors with Lemma 24 chains of length q
		// each, so its diameter is at most q*(q+1). (The ⌈n/f⌉ bound of
		// Lemma 24 is for the full N_A, not this finite sub-model.)
		if d > q*(q+1) {
			t.Errorf("n=%d f=%d: alpha-diameter %d exceeds anchor-chain bound %d", tc.n, tc.f, d, q*(q+1))
		}
		if m.ExactConsensusSolvable() {
			t.Errorf("n=%d f=%d: AsyncChain should be exact-consensus unsolvable", tc.n, tc.f)
		}
		bound := m.ContractionLowerBound()
		if bound.Rate <= 0 {
			t.Errorf("n=%d f=%d: expected a positive contraction bound", tc.n, tc.f)
		}
		t.Logf("AsyncChain(%d,%d): %d graphs, D=%d, bound=%.4f via %s",
			tc.n, tc.f, m.Size(), d, bound.Rate, bound.Theorem)
	}
	if _, err := AsyncChain(4, 2); err == nil {
		t.Error("AsyncChain with f >= n/2 accepted")
	}
}

// TestFullAsyncRoundModel computes the exact alpha-diameter of the full
// asynchronous-round model N_A(4, 1) and checks it against the Lemma 24
// upper bound ⌈n/f⌉ = 4, which yields Theorem 6's 1/(⌈n/f⌉+1) round-based
// contraction bound.
func TestFullAsyncRoundModel(t *testing.T) {
	m, err := FullAsyncRound(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 256 {
		t.Fatalf("N_A(4,1) has %d graphs, want 4^4 = 256", m.Size())
	}
	for _, g := range m.Graphs() {
		if g.MinInDegree() < 3 {
			t.Fatalf("N_A(4,1) member with min in-degree %d: %v", g.MinInDegree(), g)
		}
	}
	d, finite := m.AlphaDiameter()
	if !finite {
		t.Fatal("N_A(4,1) alpha-diameter should be finite")
	}
	if d > graph.NumBlocks(4, 1) {
		t.Errorf("N_A(4,1) alpha-diameter %d exceeds Lemma 24 bound %d", d, graph.NumBlocks(4, 1))
	}
	if m.ExactConsensusSolvable() {
		t.Error("exact consensus should be unsolvable in N_A(4,1) (f >= 1 crash)")
	}
	bound := m.ContractionLowerBound()
	if bound.Rate < 1.0/float64(graph.NumBlocks(4, 1)+1)-1e-12 {
		t.Errorf("N_A(4,1) bound %.4f below Theorem 6 value %.4f", bound.Rate, 1.0/5.0)
	}
	t.Logf("N_A(4,1): exact D=%d, bound=%.4f via %s", d, bound.Rate, bound.Theorem)
	if _, err := FullAsyncRound(6, 2); err == nil {
		t.Error("FullAsyncRound(6,2) should refuse enumeration")
	}
}

// TestAsyncFamiliesBoundedWork pins the member counts the async model
// families are capped by and checks that requests past the cap are
// refused before any enumeration: before the closed-form checks,
// FullAsyncRound(63,1) scanned 2^63 subsets per node and
// AsyncChain(1000,1) built a million graphs.
func TestAsyncFamiliesBoundedWork(t *testing.T) {
	for n := 3; n <= 20; n++ {
		for f := 1; 2*f < n; f++ {
			m, err := AsyncChain(n, f)
			if err != nil {
				t.Fatalf("AsyncChain(%d,%d): %v", n, f, err)
			}
			q := graph.NumBlocks(n, f)
			want := q*q + 1
			if f == 1 {
				want = q * q
			}
			if m.Size() != want {
				t.Fatalf("AsyncChain(%d,%d) has %d members, want %d", n, f, m.Size(), want)
			}
		}
	}
	if m, err := AsyncChain(64, 1); err != nil || m.Size() != maxMembers {
		t.Fatalf("AsyncChain(64,1) at the cap: %v", err)
	}
	for _, nf := range [][2]int{{65, 1}, {200, 1}, {1000, 1}, {1024, 2}} {
		if _, err := AsyncChain(nf[0], nf[1]); err == nil {
			t.Errorf("AsyncChain(%d,%d) accepted past the member cap", nf[0], nf[1])
		}
	}
	if m, err := FullAsyncRound(5, 1); err != nil || m.Size() != 3125 {
		t.Fatalf("FullAsyncRound(5,1) = 5^5 members: %v", err)
	}
	for _, nf := range [][2]int{{6, 1}, {26, 1}, {63, 1}, {64, 1}, {1000, 999}} {
		if _, err := FullAsyncRound(nf[0], nf[1]); err == nil {
			t.Errorf("FullAsyncRound(%d,%d) accepted past the member cap", nf[0], nf[1])
		}
	}
}

func TestSilencedBlocksModel(t *testing.T) {
	m, err := SilencedBlocks(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 3 {
		t.Fatalf("SilencedBlocks(6,2) size = %d, want 3", m.Size())
	}
	// The union of silenced blocks covers [n], so the intersection of the
	// root sets is empty.
	if m.CommonRoots(m.allIndices()) != 0 {
		t.Error("silenced-block graphs should have no common root")
	}
	if _, err := SilencedBlocks(4, 4); err == nil {
		t.Error("SilencedBlocks with f >= n accepted")
	}
}

// TestCorollary23WithInfiniteFullDiameter builds a model whose full
// alpha-diameter is infinite (Theorem 5 inapplicable) but that still has
// a positive bound through its source-incompatible beta-class: deaf(K3)
// plus an alpha-isolated 3-cycle. The cycle's in-neighborhoods differ
// from every deaf graph's on every potential witness root, so it forms
// its own class.
func TestCorollary23WithInfiniteFullDiameter(t *testing.T) {
	gs := append(graph.DeafFamily(graph.Complete(3)), graph.Cycle(3))
	m := MustNew(gs...)
	if _, finite := m.AlphaDiameter(); finite {
		t.Fatal("expected infinite full alpha-diameter")
	}
	if m.ExactConsensusSolvable() {
		t.Fatal("deaf class should make the model unsolvable")
	}
	classes := m.BetaClasses()
	if len(classes) != 2 {
		t.Fatalf("beta classes = %v, want deaf-class + cycle", classes)
	}
	b := m.ContractionLowerBound()
	if b.Rate != 0.5 {
		t.Errorf("bound = %v via %s, want 1/2 (deaf triple / Corollary 23)", b.Rate, b.Theorem)
	}
}

// TestSilencedBlocksSolvable documents a subtlety of Theorem 19: the
// model of the silenced-block graphs alone is exact-consensus solvable —
// the K_r are pairwise alpha-unrelated, so each forms its own beta-class
// with a nonempty root set, even though the union of the model's root
// sets is empty.
func TestSilencedBlocksSolvable(t *testing.T) {
	m, err := SilencedBlocks(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.CommonRoots(m.allIndices()) != 0 {
		t.Fatal("sanity: no common root across all blocks")
	}
	classes := m.BetaClasses()
	if len(classes) != m.Size() {
		t.Fatalf("beta classes = %v, want singletons", classes)
	}
	if !m.ExactConsensusSolvable() {
		t.Error("singleton-class model should be solvable (Theorem 19)")
	}
	if b := m.ContractionLowerBound(); b.Rate != 0 {
		t.Errorf("bound = %v, want 0 for a solvable model", b.Rate)
	}
}

func TestAllRootedAllNonSplit(t *testing.T) {
	r, err := AllRooted(3)
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsRooted() {
		t.Error("AllRooted contains unrooted graph")
	}
	ns, err := AllNonSplit(3)
	if err != nil {
		t.Fatal(err)
	}
	if !ns.IsNonSplit() {
		t.Error("AllNonSplit contains split graph")
	}
	if ns.Size() >= r.Size() {
		t.Errorf("non-split model (%d) should be smaller than rooted model (%d)", ns.Size(), r.Size())
	}
	// The non-split model on >= 3 agents contains deaf(K_n)? It contains
	// every non-split graph; Deaf(K3, i) is non-split, so yes.
	for i := 0; i < 3; i++ {
		if !ns.Contains(graph.Deaf(graph.Complete(3), i)) {
			t.Errorf("AllNonSplit(3) missing Deaf(K3,%d)", i)
		}
	}
	// Hence its contraction bound is 1/2.
	if b := ns.ContractionLowerBound(); b.Rate != 0.5 {
		t.Errorf("AllNonSplit(3) bound = %v via %s, want 1/2", b.Rate, b.Theorem)
	}
	if _, err := AllRooted(7); err == nil {
		t.Error("AllRooted(7) should refuse enumeration")
	}
}

// TestLemma17BetaClassIsOwnSingleClass machine-checks Lemma 17: a
// beta-class N' of N, viewed as a model of its own, is alpha*-connected
// and has the single beta-class N' x N'.
func TestLemma17BetaClassIsOwnSingleClass(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	models := []*Model{
		TwoAgent(),
		DeafModel(graph.Complete(3)),
		PsiModel(5),
	}
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(3)
		size := 2 + rng.Intn(5)
		gs := make([]graph.Graph, size)
		for i := range gs {
			gs[i] = graph.Random(rng, n, 0.4)
		}
		models = append(models, MustNew(gs...))
	}
	for mi, m := range models {
		for _, class := range m.BetaClasses() {
			sub := m.Sub(class)
			subAlpha := sub.AlphaClasses()
			if len(subAlpha) != 1 {
				t.Errorf("model %d: beta-class %v not alpha*-connected as own model: %v",
					mi, class, subAlpha)
			}
			subBeta := sub.BetaClasses()
			if len(subBeta) != 1 || len(subBeta[0]) != sub.Size() {
				t.Errorf("model %d: beta-class %v splits further as own model: %v",
					mi, class, subBeta)
			}
		}
	}
}

func TestBetaClassesRandomizedInvariants(t *testing.T) {
	// Invariants on random models: beta refines alpha*; classes partition
	// the model; solvability is consistent with the class predicate.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(3)
		size := 2 + rng.Intn(5)
		gs := make([]graph.Graph, size)
		for i := range gs {
			gs[i] = graph.Random(rng, n, 0.4)
		}
		m := MustNew(gs...)
		alpha := m.AlphaClasses()
		beta := m.BetaClasses()
		if !isPartition(beta, m.Size()) {
			t.Fatalf("beta classes %v are not a partition of %d graphs", beta, m.Size())
		}
		if !refines(beta, alpha) {
			t.Fatalf("beta %v does not refine alpha* %v", beta, alpha)
		}
		wantSolvable := true
		for _, c := range beta {
			if m.SourceIncompatible(c) {
				wantSolvable = false
			}
		}
		if got := m.ExactConsensusSolvable(); got != wantSolvable {
			t.Fatalf("solvability inconsistent: got %v want %v", got, wantSolvable)
		}
	}
}

func isPartition(classes [][]int, size int) bool {
	seen := make([]bool, size)
	count := 0
	for _, c := range classes {
		for _, i := range c {
			if i < 0 || i >= size || seen[i] {
				return false
			}
			seen[i] = true
			count++
		}
	}
	return count == size
}

func refines(fine, coarse [][]int) bool {
	owner := map[int]int{}
	for ci, c := range coarse {
		for _, i := range c {
			owner[i] = ci
		}
	}
	for _, c := range fine {
		for _, i := range c[1:] {
			if owner[i] != owner[c[0]] {
				return false
			}
		}
	}
	return true
}
