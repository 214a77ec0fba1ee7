package scenario

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// mk returns a helper that unwraps (*Schedule, error) constructor
// results, failing the test on error.
func mk(t *testing.T) func(*Schedule, error) *Schedule {
	return func(s *Schedule, err error) *Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := New(3, graph.Complete(4)); err == nil {
		t.Error("node-count mismatch accepted")
	}
	if _, err := NewLasso(0, nil, []graph.Graph{graph.Complete(1)}); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestEncodeDecodeFingerprint(t *testing.T) {
	s := mk(t)(NewLasso(4,
		[]graph.Graph{graph.Star(4, 1), graph.Cycle(4)},
		[]graph.Graph{graph.Complete(4)}))
	enc := s.Encode()
	d, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(d) {
		t.Fatal("decode is not the encoded schedule")
	}
	if s.Fingerprint() != d.Fingerprint() {
		t.Fatal("fingerprint changed across encode/decode")
	}
	if !bytes.Equal(enc, d.Encode()) {
		t.Fatal("re-encode not byte-identical")
	}
}

func TestSourceIsObliviousAndMatchesAt(t *testing.T) {
	s := mk(t)(NewLasso(3,
		[]graph.Graph{graph.Cycle(3)},
		[]graph.Graph{graph.Complete(3), graph.Star(3, 2)}))
	src := s.Source()
	if !core.IsOblivious(src) {
		t.Fatal("schedule source must be oblivious")
	}
	for round := 1; round <= 9; round++ {
		if !src.Next(round, nil).Equal(s.At(round)) {
			t.Fatalf("round %d: source disagrees with At", round)
		}
	}
}

func TestRecorderCapturesAdaptiveSource(t *testing.T) {
	// A source whose graph depends on the round only; wrap and replay.
	base := core.ObliviousFunc(func(round int) graph.Graph {
		if round%2 == 0 {
			return graph.Complete(3)
		}
		return graph.Cycle(3)
	})
	rec := NewRecorder(base, 3)
	if !core.IsOblivious(rec) {
		t.Fatal("recorder must stay oblivious over an oblivious source")
	}
	for round := 1; round <= 5; round++ {
		rec.Next(round, nil)
	}
	s, err := rec.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if s.PrefixLen() != 5 || !s.Finite() {
		t.Fatalf("recorded schedule has shape prefix=%d loop=%d", s.PrefixLen(), s.LoopLen())
	}
	for round := 1; round <= 5; round++ {
		if !s.At(round).Equal(base.Next(round, nil)) {
			t.Fatalf("round %d: replay differs from the recorded source", round)
		}
	}
}

func TestGenerators(t *testing.T) {
	t.Run("FromModel", func(t *testing.T) {
		m := model.TwoAgent()
		a := mk(t)(FromModel(m, 7, 20))
		b := mk(t)(FromModel(m, 7, 20))
		if !a.Equal(b) {
			t.Fatal("FromModel is not deterministic in the seed")
		}
		c := mk(t)(FromModel(m, 8, 20))
		if a.Equal(c) {
			t.Fatal("different seeds produced identical draws")
		}
		for round := 1; round <= 20; round++ {
			if !m.Contains(a.At(round)) {
				t.Fatalf("round %d plays a non-member graph", round)
			}
		}
	})
	t.Run("PartitionHeal", func(t *testing.T) {
		s := mk(t)(PartitionHeal(6, 2, 4))
		if s.PrefixLen() != 4 || s.LoopLen() != 1 {
			t.Fatalf("shape prefix=%d loop=%d", s.PrefixLen(), s.LoopLen())
		}
		if s.At(1).IsRooted() {
			t.Fatal("partitioned round must be unrooted")
		}
		if !s.At(1).HasEdge(0, 1) || s.At(1).HasEdge(0, 5) {
			t.Fatal("partition blocks wrong")
		}
		if !s.At(5).IsComplete() {
			t.Fatal("healed round must be complete")
		}
	})
	t.Run("Churn", func(t *testing.T) {
		s := mk(t)(Churn(8, 3, 5, 4, 3))
		if s.PrefixLen() != 20 {
			t.Fatalf("prefix %d, want 20", s.PrefixLen())
		}
		for round := 1; round <= 20; round++ {
			if !s.At(round).IsRooted() {
				t.Fatalf("churn round %d unrooted", round)
			}
		}
		if !mk(t)(Churn(8, 3, 5, 4, 3)).Equal(s) {
			t.Fatal("Churn is not deterministic in the seed")
		}
	})
	t.Run("EventuallyRooted", func(t *testing.T) {
		s := mk(t)(EventuallyRooted(4, 3))
		for round := 1; round <= 3; round++ {
			if s.At(round).IsRooted() {
				t.Fatalf("silent round %d is rooted", round)
			}
		}
		if !s.At(4).IsComplete() {
			t.Fatal("round k+1 must be complete")
		}
	})
}

// TestGeneratorsRejectHostileArguments: generator arguments arrive from
// untrusted spec strings (the server's scenario endpoint), so out-of-
// range agent counts and overflow-inducing sizes must error, not panic.
func TestGeneratorsRejectHostileArguments(t *testing.T) {
	const huge = int(^uint(0) >> 2)
	cases := map[string]func() (*Schedule, error){
		"PartitionHeal n>1024": func() (*Schedule, error) { return PartitionHeal(1025, 2, 4) },
		"Churn n>1024":         func() (*Schedule, error) { return Churn(1025, 1, 3, 4, 2) },
		"Churn n<1":            func() (*Schedule, error) { return Churn(0, 1, 3, 4, 0) },
		"EventuallyRooted n":   func() (*Schedule, error) { return EventuallyRooted(1025, 2) },
		"Churn cap overflow":   func() (*Schedule, error) { return Churn(4, 1, huge, 3, 1) },
		"Repeat cap overflow": func() (*Schedule, error) {
			s, err := EventuallyRooted(4, 2)
			if err != nil {
				return nil, err
			}
			return Repeat(s, huge)
		},
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of erroring: %v", r)
				}
			}()
			if _, err := f(); err == nil {
				t.Fatal("hostile arguments accepted")
			}
		})
	}
}

// churnViaBuilder is Churn as it was built before graph.Broadcast: one
// graph.Builder per epoch, every row set through SetInRow. It draws from
// the seeded source exactly as Churn does.
func churnViaBuilder(n int, seed int64, period, epochs, maxDown int) (*Schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	prefix := make([]graph.Graph, 0, period*epochs)
	down := make([]bool, n)
	upRow := make([]uint64, graph.WordsFor(n))
	for e := 0; e < epochs; e++ {
		downCount := rng.Intn(maxDown + 1)
		for i := range down {
			down[i] = false
		}
		for _, i := range rng.Perm(n)[:downCount] {
			down[i] = true
		}
		for w := range upRow {
			upRow[w] = 0
		}
		for i := 0; i < n; i++ {
			if !down[i] {
				upRow[i/64] |= 1 << uint(i%64)
			}
		}
		b := graph.NewBuilder(n)
		for j := 0; j < n; j++ {
			b.SetInRow(j, upRow)
		}
		g := b.Graph()
		for t := 0; t < period; t++ {
			prefix = append(prefix, g)
		}
	}
	return New(n, prefix...)
}

// TestChurnMatchesBuilderConstruction holds Churn's broadcast rows to
// the Builder construction it replaced: equal graphs in every round and
// equal fingerprints, over random seeds, periods and down counts at
// widths on both sides of the word boundaries and at the node cap.
func TestChurnMatchesBuilderConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 256, 1024} {
		for trial := 0; trial < 6; trial++ {
			seed, period, epochs := rng.Int63(), 1+rng.Intn(4), 1+rng.Intn(6)
			maxDown := rng.Intn(n)
			got := mk(t)(Churn(n, seed, period, epochs, maxDown))
			want := mk(t)(churnViaBuilder(n, seed, period, epochs, maxDown))
			if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("churn:%d,%d,%d,%d,%d differs from the Builder construction", n, seed, period, epochs, maxDown)
			}
		}
	}
}

func TestLassoAlgebra(t *testing.T) {
	a := mk(t)(New(3, graph.Cycle(3), graph.Complete(3)))
	b := mk(t)(NewLasso(3, []graph.Graph{graph.Star(3, 0)}, []graph.Graph{graph.Star(3, 1), graph.Star(3, 2)}))

	t.Run("Repeat", func(t *testing.T) {
		r := mk(t)(Repeat(a, 3))
		if r.PrefixLen() != 6 {
			t.Fatalf("prefix %d, want 6", r.PrefixLen())
		}
		for i := 0; i < 3; i++ {
			if !r.At(2*i+1).Equal(graph.Cycle(3)) || !r.At(2*i+2).Equal(graph.Complete(3)) {
				t.Fatalf("repetition %d wrong", i)
			}
		}
	})
	t.Run("Concat", func(t *testing.T) {
		c := mk(t)(Concat(a, b))
		want := []graph.Graph{graph.Cycle(3), graph.Complete(3), graph.Star(3, 0), graph.Star(3, 1), graph.Star(3, 2), graph.Star(3, 1)}
		for i, g := range want {
			if !c.At(i + 1).Equal(g) {
				t.Fatalf("round %d wrong", i+1)
			}
		}
		if _, err := Concat(b, a); err == nil {
			t.Fatal("Concat accepted an infinite non-final operand")
		}
	})
	t.Run("Interleave", func(t *testing.T) {
		il := mk(t)(Interleave(a, b))
		// Round 2t-1 = a.At(t), round 2t = b.At(t), for any horizon.
		for tt := 1; tt <= 12; tt++ {
			if !il.At(2*tt - 1).Equal(a.At(tt)) {
				t.Fatalf("odd round %d: not a's round %d", 2*tt-1, tt)
			}
			if !il.At(2 * tt).Equal(b.At(tt)) {
				t.Fatalf("even round %d: not b's round %d", 2*tt, tt)
			}
		}
	})
}

func TestCertify(t *testing.T) {
	t.Run("EventuallyRooted", func(t *testing.T) {
		s := mk(t)(EventuallyRooted(4, 3))
		cert, err := s.Certify(context.Background(), 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cert.Rooted || cert.FirstUnrooted != 1 {
			t.Fatalf("silent prefix not flagged: %+v", cert)
		}
		// k=3 fails on the all-silent window 1..3; k=4 forces every
		// window to contain at least one complete round, whose product
		// with anything is rooted.
		if cert.RootedWindow != 4 {
			t.Fatalf("rooted window %d, want 4", cert.RootedWindow)
		}
	})
	t.Run("AllRootedNonSplit", func(t *testing.T) {
		s := mk(t)(New(3, graph.Complete(3)))
		cert, err := s.Certify(context.Background(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !cert.Rooted || !cert.NonSplit || cert.RootedWindow != 1 {
			t.Fatalf("complete graph miscertified: %+v", cert)
		}
	})
	t.Run("WindowWrapsLoop", func(t *testing.T) {
		// A pure-loop lasso [P, E, P]: P is two isolated complete
		// blocks, E a single cross edge. The replayed schedule plays
		// (P, P) across the loop boundary (rounds 3-4), whose product
		// is unrooted, so RootedWindow must not be 2 even though no
		// 2-window inside one loop iteration read off the horizon
		// alone would show it.
		p := graph.MustFromEdges(4, [2]int{0, 1}, [2]int{1, 0}, [2]int{2, 3}, [2]int{3, 2})
		e := graph.MustFromEdges(4, [2]int{1, 2})
		s := mk(t)(NewLasso(4, nil, []graph.Graph{p, e, p}))
		cert, err := s.Certify(context.Background(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cert.RootedWindow == 2 {
			t.Fatal("RootedWindow 2 certified despite the unrooted (P,P) window across the loop boundary")
		}
		// Any 3 consecutive rounds contain E exactly once; with both
		// blocks internally complete and the 1->2 bridge, the product
		// is rooted, so 3 is the true answer at any horizon.
		if cert.RootedWindow != 3 {
			t.Fatalf("rooted window %d, want 3", cert.RootedWindow)
		}
	})
	t.Run("ModelMembership", func(t *testing.T) {
		m := model.TwoAgent()
		member := mk(t)(FromModel(m, 1, 8))
		cert, err := member.Certify(context.Background(), 8, m)
		if err != nil {
			t.Fatal(err)
		}
		if !cert.ModelChecked || !cert.ModelMember {
			t.Fatalf("member schedule not certified: %+v", cert)
		}
		outside := mk(t)(New(2, graph.New(2))) // identity graph is not in TwoAgent
		cert, err = outside.Certify(context.Background(), 3, m)
		if err != nil {
			t.Fatal(err)
		}
		if cert.ModelMember || cert.FirstNonMember != 1 {
			t.Fatalf("non-member schedule passed: %+v", cert)
		}
		if _, err := member.Certify(context.Background(), 1, model.MustNew(graph.Complete(3))); err == nil {
			t.Fatal("model on wrong n accepted")
		}
	})
	t.Run("SummaryRenders", func(t *testing.T) {
		s := mk(t)(PartitionHeal(6, 3, 2))
		cert, err := s.Certify(context.Background(), 6, nil)
		if err != nil {
			t.Fatal(err)
		}
		text := cert.Summary()
		for _, frag := range []string{"rounds certified", "rooted every round", "first at round 1"} {
			if !bytes.Contains([]byte(text), []byte(frag)) {
				t.Fatalf("summary missing %q:\n%s", frag, text)
			}
		}
	})
}
