package adversary_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// bg is the context of the tests' valency queries, which are never
// cancelled.
var bg = context.Background()

// must returns v, panicking on err: a query under bg cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// deltaFloorRun drives alg from inputs under the greedy adversary for the
// given rounds and returns the certified inner δ(C_t) for every t.
func deltaFloorRun(t *testing.T, alg core.Algorithm, m *model.Model, inputs []float64, depth, rounds int) []float64 {
	t.Helper()
	eng := valency.NewEngine(m, valency.DefaultParams(depth, alg.Convex()))
	adv := &adversary.Greedy{Eng: eng}
	c := core.NewConfig(alg, inputs)
	floors := []float64{must(eng.DeltaLower(bg, c))}
	for round := 1; round <= rounds; round++ {
		g := adv.Next(round, c)
		c = c.Step(g)
		floors = append(floors, must(eng.DeltaLower(bg, c)))
	}
	return floors
}

// TestTheorem1FloorTwoAgents reproduces the Theorem 1 lower bound: under
// the greedy valency-splitting adversary over {H0, H1, H2}, every
// algorithm retains δ(C_t) >= δ(C_0)/3^t. The inner estimates are sound
// lower bounds on δ, so the check is conservative.
func TestTheorem1FloorTwoAgents(t *testing.T) {
	m := model.TwoAgent()
	rounds := 6
	for _, alg := range []core.Algorithm{algorithms.TwoThirds{}, algorithms.Midpoint{}, algorithms.Mean{}} {
		floors := deltaFloorRun(t, alg, m, []float64{0, 1}, 5, rounds)
		if math.Abs(floors[0]-1) > 1e-6 {
			t.Fatalf("%s: δ(C0) = %v, want 1 (Lemma 8)", alg.Name(), floors[0])
		}
		for tt := 1; tt <= rounds; tt++ {
			want := math.Pow(1.0/3.0, float64(tt))
			if floors[tt] < want-1e-6 {
				t.Errorf("%s: δ(C_%d) = %v below Theorem 1 floor %v", alg.Name(), tt, floors[tt], want)
			}
		}
	}
}

// TestTwoThirdsIsExactlyOptimal checks tightness at n = 2: for the
// two-thirds algorithm the adversary can do no better than the 1/3 floor
// (ratio exactly 1/3 per round), certifying that Algorithm 1 matches the
// Theorem 1 bound.
func TestTwoThirdsIsExactlyOptimal(t *testing.T) {
	floors := deltaFloorRun(t, algorithms.TwoThirds{}, model.TwoAgent(), []float64{0, 1}, 5, 5)
	for tt := 1; tt < len(floors); tt++ {
		want := math.Pow(1.0/3.0, float64(tt))
		if math.Abs(floors[tt]-want) > 1e-5 {
			t.Errorf("δ(C_%d) = %v, want exactly %v for the optimal algorithm", tt, floors[tt], want)
		}
	}
}

// TestMidpointSuboptimalAtTwoAgents documents the interesting gap the
// bounds expose: at n = 2 the midpoint algorithm only achieves contraction
// 1/2 (the adversary holds δ at 2^-t), strictly worse than the optimal
// 3^-t of the two-thirds algorithm.
func TestMidpointSuboptimalAtTwoAgents(t *testing.T) {
	floors := deltaFloorRun(t, algorithms.Midpoint{}, model.TwoAgent(), []float64{0, 1}, 5, 5)
	for tt := 1; tt < len(floors); tt++ {
		want := math.Pow(0.5, float64(tt))
		if floors[tt] < want-1e-5 {
			t.Errorf("δ(C_%d) = %v below midpoint's 2^-t = %v", tt, floors[tt], want)
		}
	}
}

// TestTheorem2FloorDeafModel reproduces the Theorem 2 lower bound: in
// deaf(K_n) the greedy adversary keeps δ(C_t) >= δ(C_0)/2^t, for n >= 3,
// against the full algorithm portfolio.
func TestTheorem2FloorDeafModel(t *testing.T) {
	cases := []struct {
		n      int
		depth  int
		rounds int
	}{
		{3, 3, 5},
		{4, 2, 4},
	}
	for _, tc := range cases {
		m := model.DeafModel(graph.Complete(tc.n))
		inputs := make([]float64, tc.n)
		inputs[0], inputs[1] = 0, 1
		for i := 2; i < tc.n; i++ {
			inputs[i] = 0.5
		}
		for _, alg := range []core.Algorithm{algorithms.Midpoint{}, algorithms.Mean{}, algorithms.AmortizedMidpoint{}} {
			floors := deltaFloorRun(t, alg, m, inputs, tc.depth, tc.rounds)
			if math.Abs(floors[0]-1) > 1e-6 {
				t.Fatalf("n=%d %s: δ(C0) = %v, want 1", tc.n, alg.Name(), floors[0])
			}
			for tt := 1; tt <= tc.rounds; tt++ {
				want := math.Pow(0.5, float64(tt))
				if floors[tt] < want-1e-5 {
					t.Errorf("n=%d %s: δ(C_%d) = %v below Theorem 2 floor %v",
						tc.n, alg.Name(), tt, floors[tt], want)
				}
			}
		}
	}
}

// TestMidpointTightInDeafModel checks tightness: midpoint's δ decays at
// exactly 2^-t under the adversary, matching upper and lower bounds.
func TestMidpointTightInDeafModel(t *testing.T) {
	m := model.DeafModel(graph.Complete(3))
	floors := deltaFloorRun(t, algorithms.Midpoint{}, m, []float64{0, 1, 0.5}, 3, 5)
	for tt := 1; tt < len(floors); tt++ {
		want := math.Pow(0.5, float64(tt))
		if math.Abs(floors[tt]-want) > 1e-5 {
			t.Errorf("δ(C_%d) = %v, want exactly %v", tt, floors[tt], want)
		}
	}
}

// TestTheorem3FloorPsiBlocks reproduces the Theorem 3 lower bound: under
// the σ-block adversary over the Ψ graphs, δ halves at most once per
// block of n-2 rounds, i.e. the per-round contraction is at least
// (1/2)^(1/(n-2)).
func TestTheorem3FloorPsiBlocks(t *testing.T) {
	for _, n := range []int{4, 5} {
		m := model.PsiModel(n)
		eng := valency.NewEngine(m, valency.DefaultParams(1, true))
		adv, err := adversary.NewBlockGreedy(eng, adversary.SigmaBlocks(n))
		if err != nil {
			t.Fatal(err)
		}
		if adv.BlockLen() != n-2 {
			t.Fatalf("block length %d, want n-2 = %d", adv.BlockLen(), n-2)
		}
		inputs := make([]float64, n)
		inputs[0], inputs[1] = 0, 1
		for i := 2; i < n; i++ {
			inputs[i] = 0.5
		}
		for _, alg := range []core.Algorithm{algorithms.AmortizedMidpoint{}, algorithms.Midpoint{}} {
			c := core.NewConfig(alg, inputs)
			if d0 := must(eng.DeltaLower(bg, c)); math.Abs(d0-1) > 1e-6 {
				t.Fatalf("n=%d %s: δ(C0) = %v, want 1 (Lemma 13)", n, alg.Name(), d0)
			}
			blocks := 4
			round := 0
			for b := 1; b <= blocks; b++ {
				for r := 0; r < n-2; r++ {
					round++
					c = c.Step(adv.Next(round, c))
				}
				floor := must(eng.DeltaLower(bg, c))
				want := math.Pow(0.5, float64(b))
				if floor < want-1e-5 {
					t.Errorf("n=%d %s: δ after block %d = %v below Theorem 3 floor %v",
						n, alg.Name(), b, floor, want)
				}
			}
		}
	}
}

// TestLemma14Indistinguishability machine-checks Lemma 14: after playing
// σ_i versus σ_j from the same configuration, every trio agent ℓ distinct
// from i and j ends with identical state (observable via its output and
// via continued identical behavior).
func TestLemma14Indistinguishability(t *testing.T) {
	for _, n := range []int{4, 5, 6, 7} {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64(i) / float64(n)
		}
		for _, alg := range []core.Algorithm{algorithms.Midpoint{}, algorithms.AmortizedMidpoint{}, algorithms.Mean{}} {
			c := core.NewConfig(alg, inputs)
			ends := make([]*core.Config, 3)
			for i := 0; i < 3; i++ {
				ends[i] = c.StepAll(graph.SigmaBlock(n, i))
			}
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					if i == j {
						continue
					}
					for l := 0; l < 3; l++ {
						if l == i || l == j {
							continue
						}
						if ends[i].Output(l) != ends[j].Output(l) {
							t.Errorf("n=%d %s: agent %d distinguishes σ_%d from σ_%d: %v vs %v",
								n, alg.Name(), l, i, j, ends[i].Output(l), ends[j].Output(l))
						}
						// The lemma also covers agents k+3..n-1 at full block
						// length: all path agents are indistinguishable too.
						for p := 3; p < n; p++ {
							_ = p
						}
					}
				}
			}
			// Stronger check from the inductive statement: path agents
			// m in {k+3, ..., n} after k rounds. At k = n-2 the surviving
			// set is empty, so only trio agents are asserted above; check
			// the k = 1 case explicitly.
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					if i == j {
						continue
					}
					ci := c.Step(graph.Psi(n, i))
					cj := c.Step(graph.Psi(n, j))
					for p := 4; p < n; p++ {
						if ci.Output(p) != cj.Output(p) {
							t.Errorf("n=%d %s: path agent %d distinguishes Ψ_%d from Ψ_%d after 1 round",
								n, alg.Name(), p, i, j)
						}
					}
				}
			}
		}
	}
}

// TestLemma14FromReachedConfigurations checks Lemma 14 for snapshots S
// reached after a prefix of σ blocks, not only the initial one:
// σ_i.S ~_ℓ σ_j.S for the trio agent ℓ outside {i, j}. The starting points
// are every concatenation of zero, one or two σ blocks.
func TestLemma14FromReachedConfigurations(t *testing.T) {
	for _, n := range []int{4, 6} {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64(i)
		}
		blocks := adversary.SigmaBlocks(n)
		c0 := core.NewConfig(algorithms.AmortizedMidpoint{}, inputs)
		starts := []*core.Config{c0}
		for _, b1 := range blocks {
			c1 := c0.StepAll(b1)
			starts = append(starts, c1)
			for _, b2 := range blocks {
				starts = append(starts, c1.StepAll(b2))
			}
		}
		for k, s := range starts {
			var ends [3]*core.Config
			for i := range ends {
				ends[i] = s.StepAll(blocks[i])
			}
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					for l := 0; l < 3; l++ {
						if i == j || l == i || l == j {
							continue
						}
						if ends[i].Output(l) != ends[j].Output(l) {
							t.Errorf("n=%d start %d (round %d): agent %d distinguishes σ_%d from σ_%d: %v vs %v",
								n, k, s.Round(), l, i, j, ends[i].Output(l), ends[j].Output(l))
						}
					}
				}
			}
		}
	}
}

// TestSigmaConcatenationsAreRooted checks the observation opening
// Section 6: any concatenation of σ blocks is a communication pattern of
// the rooted network model, so every graph it plays is rooted. It covers
// a fixed concatenation and the one BlockGreedy chooses.
func TestSigmaConcatenationsAreRooted(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		blocks := adversary.SigmaBlocks(n)
		for r := 0; r < 20; r++ {
			block := blocks[(r/(n-2))%3]
			if g := block[r%(n-2)]; !g.IsRooted() {
				t.Fatalf("n=%d round %d: σ concatenation played unrooted graph %v", n, r+1, g)
			}
		}
	}
	n := 6
	adv, err := adversary.NewBlockGreedy(valency.NewEngine(model.PsiModel(n), valency.DefaultParams(1, true)), adversary.SigmaBlocks(n))
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.5, 0.25, 0.75, 0.5})
	for round := 1; round <= 20; round++ {
		g := adv.Next(round, c)
		if !g.IsRooted() {
			t.Fatalf("round %d: BlockGreedy played unrooted graph %v", round, g)
		}
		c = c.Step(g)
	}
}

// TestTheorem5FloorAlphaDiameter reproduces the generic Theorem 5 bound on
// the async-chain sub-model: the greedy adversary preserves
// δ(C_t) >= δ(C_0)/(D+1)^t where D is the model's alpha-diameter.
func TestTheorem5FloorAlphaDiameter(t *testing.T) {
	// The full N_A(4,1) has 256 graphs; greedy exploration over 256
	// successors with 256 continuations each is too slow for a unit test,
	// so use the sub-model of silenced blocks joined by Lemma 24 chains
	// (alpha-connected, unsolvable) instead, with its own computed D.
	sub, err := model.AsyncChain(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, finite := sub.AlphaDiameter()
	if !finite {
		t.Fatal("sub-model alpha-diameter infinite")
	}
	bound := 1 / float64(d+1)
	eng := valency.NewEngine(sub, valency.DefaultParams(0, true))
	adv := &adversary.Greedy{Eng: eng}
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.5, 0.25})
	d0 := must(eng.DeltaLower(bg, c))
	if d0 <= 0 {
		t.Fatal("δ(C0) estimate is zero; estimator too coarse")
	}
	rounds := 4
	for round := 1; round <= rounds; round++ {
		c = c.Step(adv.Next(round, c))
		floor := must(eng.DeltaLower(bg, c))
		want := d0 * math.Pow(bound, float64(round))
		if floor < want-1e-6 {
			t.Errorf("δ(C_%d) = %v below Theorem 5 floor %v (D=%d)", round, floor, want, d)
		}
	}
}

// TestGreedyFallbackOnBlindEstimator forces the inner estimates to
// witness no spread (Settle too small for a spread-out continuation to
// converge, and no agent of {K_3, C_3} hears only itself, so no limit
// comes in closed form) and checks the adversary falls back to
// maximizing the successor value diameter.
func TestGreedyFallbackOnBlindEstimator(t *testing.T) {
	m := model.MustNew(graph.Complete(3), graph.Cycle(3))
	p := valency.DefaultParams(1, true)
	p.Settle = 1
	p.Tol = 1e-12
	eng := valency.NewEngine(m, p)
	c := core.NewConfig(algorithms.Midpoint{}, []float64{0, 1, 0.5})
	for k, iv := range must(eng.SuccessorInners(bg, c)) {
		if iv.Diameter() > 0 {
			t.Fatalf("precondition failed: successor %d has inner bound %v, so the fallback would not run", k, iv)
		}
	}
	g := (&adversary.Greedy{Eng: eng}).Next(1, c)
	// K_3 collapses the successor to consensus, C_3 keeps a spread of 1/2.
	if !g.Equal(graph.Cycle(3)) {
		t.Errorf("fallback chose %v, want the spread-keeping C_3", g)
	}
}

// TestBlockGreedyFallback exercises the same fallback for the block
// adversary: mean has no closed-form limit, so with Settle 1 no
// end-of-block inner bound on Psi(4) has a positive diameter, and each
// decision must play the block whose end has the largest value diameter
// (the lowest index on ties). From these inputs that is σ_2 every time,
// so an adversary that skipped the fallback and kept σ_0 would fail.
func TestBlockGreedyFallback(t *testing.T) {
	n := 4
	m := model.PsiModel(n)
	p := valency.DefaultParams(0, true)
	p.Settle = 1
	eng := valency.NewEngine(m, p)
	blocks := adversary.SigmaBlocks(n)
	adv, err := adversary.NewBlockGreedy(eng, blocks)
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewConfig(algorithms.Mean{}, []float64{0, 0.5, 1, 0.25})
	round := 0
	for decision := 0; decision < 2; decision++ {
		want, wantDiam := 0, -1.0
		for k, block := range blocks {
			end := c.StepAll(block)
			if iv := must(eng.Inner(bg, end)); iv.Diameter() > 0 {
				t.Fatalf("decision %d: precondition failed: block %d ends with inner bound %v, so the fallback would not run", decision, k, iv)
			}
			if d := end.Diameter(); d > wantDiam {
				want, wantDiam = k, d
			}
		}
		for _, wantG := range blocks[want] {
			round++
			g := adv.Next(round, c)
			if !g.Equal(wantG) {
				t.Fatalf("decision %d, round %d: fallback played %v, want block %d's %v", decision, round, g, want, wantG)
			}
			c = c.Step(g)
		}
	}
	if c.Diameter() <= 0 {
		t.Error("fallback adversary should preserve a positive diameter")
	}
}

func TestBlockGreedyValidation(t *testing.T) {
	m := model.PsiModel(5)
	eng := valency.NewEngine(m, valency.DefaultParams(1, true))
	if _, err := adversary.NewBlockGreedy(eng, nil); err == nil {
		t.Error("accepted empty block set")
	}
	if _, err := adversary.NewBlockGreedy(eng, [][]graph.Graph{{}}); err == nil {
		t.Error("accepted empty block")
	}
	ragged := [][]graph.Graph{graph.SigmaBlock(5, 0), {graph.Psi(5, 1)}}
	if _, err := adversary.NewBlockGreedy(eng, ragged); err == nil {
		t.Error("accepted ragged blocks")
	}
	alien := [][]graph.Graph{{graph.Complete(5), graph.Complete(5), graph.Complete(5)}}
	if _, err := adversary.NewBlockGreedy(eng, alien); err == nil {
		t.Error("accepted block with non-member graph")
	}
}

func TestGreedyTraceRecording(t *testing.T) {
	m := model.TwoAgent()
	eng := valency.NewEngine(m, valency.DefaultParams(3, true))
	var decisions []adversary.Decision
	adv := &adversary.Greedy{Eng: eng, Trace: &decisions}
	c := core.NewConfig(algorithms.TwoThirds{}, []float64{0, 1})
	for round := 1; round <= 3; round++ {
		c = c.Step(adv.Next(round, c))
	}
	if len(decisions) != 3 {
		t.Fatalf("recorded %d decisions, want 3", len(decisions))
	}
	for i, d := range decisions {
		if d.Round != i+1 || len(d.Inner) != 3 {
			t.Errorf("decision %d malformed: %+v", i, d)
		}
		if d.Chosen < 0 || d.Chosen >= 3 {
			t.Errorf("decision %d chose out-of-range graph %d", i, d.Chosen)
		}
	}
}

// TestCancelledAdversariesPlayNothing runs both valency adversaries under
// a context that is already cancelled: their searches stop at once, the
// greedy adversary records no decision, and the run returns the
// context's error without playing a round.
func TestCancelledAdversariesPlayNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	m := model.PsiModel(5)
	eng := valency.NewEngine(m, valency.DefaultParams(3, true))
	var decisions []adversary.Decision
	block, err := adversary.NewBlockGreedy(eng, adversary.SigmaBlocks(5))
	if err != nil {
		t.Fatal(err)
	}
	block.Ctx = ctx
	for _, src := range []core.PatternSource{&adversary.Greedy{Eng: eng, Trace: &decisions, Ctx: ctx}, block} {
		tr, err := core.RunCtx(ctx, algorithms.Midpoint{}, []float64{0, 1, 0.5, 0.25, 0.75}, src, 3)
		if !errors.Is(err, context.Canceled) || tr != nil {
			t.Fatalf("%T: run returned (%v, %v), want the cancellation", src, tr, err)
		}
	}
	if len(decisions) != 0 {
		t.Fatalf("a cancelled greedy search recorded decisions %v", decisions)
	}
	if s := eng.Stats(); s != (valency.CacheStats{}) {
		t.Fatalf("cancelled searches touched the tables; stats %+v", s)
	}
}
