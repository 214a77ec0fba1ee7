package async_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/graph"
)

func TestUpdateRules(t *testing.T) {
	if got := async.MidpointUpdate([]float64{1, 5, 2}); got != 3 {
		t.Errorf("MidpointUpdate = %v, want 3", got)
	}
	if got := async.MeanUpdate([]float64{1, 2, 3}); got != 2 {
		t.Errorf("MeanUpdate = %v, want 2", got)
	}
	// SelectedMean with f=2 over 5 sorted values picks ranks 0, 2, 4.
	if got := async.SelectedMeanUpdate(2)([]float64{5, 1, 3, 2, 4}); got != (1+3+5)/3.0 {
		t.Errorf("SelectedMeanUpdate(2) = %v, want 3", got)
	}
	// f=1 selects everything: equals the mean.
	vals := []float64{4, 8, 15, 16}
	if got, want := async.SelectedMeanUpdate(1)(append([]float64(nil), vals...)), async.MeanUpdate(vals); got != want {
		t.Errorf("SelectedMeanUpdate(1) = %v, want mean %v", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SelectedMeanUpdate(0) did not panic")
			}
		}()
		async.SelectedMeanUpdate(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty update did not panic")
			}
		}()
		async.MidpointUpdate(nil)
	}()
}

func newRoundBasedSystem(n, f int, inputs []float64, update async.UpdateFn, maxRound int) []async.Process {
	procs := make([]async.Process, n)
	for i := 0; i < n; i++ {
		procs[i] = async.NewRoundBased(i, n, f, inputs[i], update, maxRound)
	}
	return procs
}

func TestSimulatorValidation(t *testing.T) {
	if _, err := async.NewSimulator(nil, async.ConstantDelay(1), nil); err == nil {
		t.Error("empty process set accepted")
	}
	procs := newRoundBasedSystem(3, 1, []float64{0, 1, 2}, async.MidpointUpdate, 4)
	if _, err := async.NewSimulator(procs, async.ConstantDelay(1),
		[]async.Crash{{Agent: 7}}); err == nil {
		t.Error("crash of unknown agent accepted")
	}
	if _, err := async.NewSimulator(procs, async.ConstantDelay(1),
		[]async.Crash{{Agent: 0}, {Agent: 0}}); err == nil {
		t.Error("duplicate crash accepted")
	}
	bad := []async.Process{procs[1]}
	if _, err := async.NewSimulator(bad, async.ConstantDelay(1), nil); err == nil {
		t.Error("mismatched process IDs accepted")
	}
}

func TestDelayValidation(t *testing.T) {
	for _, d := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ConstantDelay(%v) did not panic", d)
				}
			}()
			async.ConstantDelay(d)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("UniformDelays with bad floor did not panic")
			}
		}()
		async.UniformDelays(1, 0)
	}()
}

// TestRoundBasedCrashFreeConvergence runs the round-based midpoint with
// random delays and no crashes: every agent executes its rounds and the
// values contract to agreement.
func TestRoundBasedCrashFreeConvergence(t *testing.T) {
	n, f := 5, 2
	inputs := []float64{0, 1, 0.25, 0.75, 0.5}
	procs := newRoundBasedSystem(n, f, inputs, async.MidpointUpdate, 30)
	sim, err := async.NewSimulator(procs, async.UniformDelays(7, 0.05), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.RunToQuiescence(1_000_000) {
		t.Fatal("simulation did not quiesce")
	}
	if d := sim.CorrectDiameter(); d > 1e-6 {
		t.Errorf("round-based midpoint did not converge: diameter %v", d)
	}
	for i := 0; i < n; i++ {
		if rb := procs[i].(*async.RoundBased); rb.Round() != 31 {
			t.Errorf("agent %d stopped at round %d, want 31", i, rb.Round())
		}
	}
}

// TestRoundBasedWithCrashesStillConverges injects f unclean crashes; the
// surviving agents keep completing rounds (they only wait for n-f
// messages) and still converge.
func TestRoundBasedWithCrashesStillConverges(t *testing.T) {
	n, f := 6, 2
	inputs := []float64{0, 1, 0.2, 0.9, 0.5, 0.7}
	procs := newRoundBasedSystem(n, f, inputs, async.MidpointUpdate, 25)
	crashes := []async.Crash{
		{Agent: 0, AfterBroadcasts: 1, Recipients: 1 << 1}, // dies in round 2, heard only by 1
		{Agent: 3, AfterBroadcasts: 3, Recipients: 0},      // dies in round 4, heard by nobody
	}
	sim, err := async.NewSimulator(procs, async.UniformDelays(11, 0.05), crashes)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.RunToQuiescence(1_000_000) {
		t.Fatal("simulation did not quiesce")
	}
	if !sim.Crashed(0) || !sim.Crashed(3) {
		t.Error("crash schedule not applied")
	}
	outs := sim.CorrectOutputs()
	if len(outs) != n-2 {
		t.Fatalf("%d correct outputs, want %d", len(outs), n-2)
	}
	if d := sim.CorrectDiameter(); d > 1e-6 {
		t.Errorf("survivors did not converge: diameter %v", d)
	}
	// Validity: outputs stay in the initial hull.
	for _, v := range outs {
		if v < 0-1e-9 || v > 1+1e-9 {
			t.Errorf("output %v escaped the initial hull", v)
		}
	}
}

// TestMinRelayEqualByFPlusOne reproduces Theorem 7 on its worst-case
// schedule: a chain of f unclean crashes relaying the unique minimum, with
// all delays exactly 1. All correct agents hold the minimum — and
// identical sets — by time f+1, and not before.
func TestMinRelayEqualByFPlusOne(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 2}, {6, 3}, {8, 7}} {
		n, f := tc.n, tc.f
		procs := make([]async.Process, n)
		inputs := make([]float64, n)
		for i := range inputs {
			if i == 0 {
				inputs[i] = 0 // unique minimum enters through the crash chain
			} else {
				inputs[i] = 1 // shared value: only the minimum triggers relays
			}
			procs[i] = async.NewMinRelay(i, inputs[i])
		}
		// Agent 0 crashes during its initial broadcast, reaching only
		// agent 1. Every later chain agent i relays the minimum with its
		// second broadcast (the first being the harmless init) and crashes
		// during it, reaching only agent i+1: the minimum travels a chain
		// of f dying relays — the Theorem 7 worst case.
		crashes := make([]async.Crash, f)
		crashes[0] = async.Crash{Agent: 0, AfterBroadcasts: 0, Recipients: 1 << 1}
		for i := 1; i < f; i++ {
			crashes[i] = async.Crash{Agent: i, AfterBroadcasts: 1, Recipients: 1 << uint(i+1)}
		}
		sim, err := async.NewSimulator(procs, async.ConstantDelay(1), crashes)
		if err != nil {
			t.Fatal(err)
		}
		// Just before time f+1 the farthest agents must not yet know the
		// minimum: it reaches agent f at time f and everyone else at f+1.
		// (With a single correct agent the diameter is trivially 0.)
		sim.RunUntil(float64(f+1) - 0.5)
		if n > f+1 && sim.CorrectDiameter() == 0 {
			t.Errorf("n=%d f=%d: agreement before time f+1 on the worst-case chain", n, f)
		}
		sim.RunUntil(float64(f + 1))
		if d := sim.CorrectDiameter(); d != 0 {
			t.Errorf("n=%d f=%d: diameter %v at time f+1, want 0 (Theorem 7)", n, f, d)
		}
		for i := f; i < n; i++ {
			if got := procs[i].Output(); got != 0 {
				t.Errorf("n=%d f=%d: agent %d output %v, want the minimum 0", n, f, i, got)
			}
		}
		// All correct agents hold identical sets, not just outputs.
		ref := procs[f].(*async.MinRelay).Set()
		for i := f + 1; i < n; i++ {
			got := procs[i].(*async.MinRelay).Set()
			if len(got) != len(ref) {
				t.Fatalf("n=%d f=%d: set size mismatch between correct agents", n, f)
			}
			for k := range ref {
				if got[k] != ref[k] {
					t.Fatalf("n=%d f=%d: sets differ between correct agents", n, f)
				}
			}
		}
	}
}

// TestMinRelayRandomSchedules property-checks Theorem 7 under random
// delays and random crash schedules: equality always holds by time f+1.
func TestMinRelayRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		f := rng.Intn(n-1) + 0 // 0..n-2 crashes keeps >= 2 correct agents
		procs := make([]async.Process, n)
		for i := 0; i < n; i++ {
			procs[i] = async.NewMinRelay(i, math.Round(rng.Float64()*8))
		}
		crashes := make([]async.Crash, 0, f)
		perm := rng.Perm(n)
		for _, a := range perm[:f] {
			crashes = append(crashes, async.Crash{
				Agent:           a,
				AfterBroadcasts: rng.Intn(2),
				Recipients:      uint64(rng.Intn(1 << uint(n))),
			})
		}
		sim, err := async.NewSimulator(procs, async.UniformDelays(int64(trial), 0.1), crashes)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(float64(f + 1))
		if d := sim.CorrectDiameter(); d != 0 {
			t.Errorf("trial %d (n=%d f=%d): diameter %v at time f+1", trial, n, f, d)
		}
	}
}

// TestTheorem6RoundBasedContractionUpperBounds embeds the round-based
// update rules into the Heard-Of model N_A(n, f) (the Section 8.1
// reduction) and measures their worst per-round contraction over random
// and structured adversarial patterns:
//
//   - midpoint contracts by at most 1/2 (every N_A graph with f < n/2 is
//     non-split), and
//   - the Fekete-style selected mean contracts by at most 1/(⌈n/f⌉-1),
//     matching Table 1's round-based upper bound.
func TestTheorem6RoundBasedContractionUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct{ n, f int }{{4, 1}, {6, 2}, {8, 2}, {9, 4}}
	for _, tc := range cases {
		n, f := tc.n, tc.f
		q := graph.NumBlocks(n, f)
		selBound := 1 / float64(q-1)
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64()
		}
		// Midpoint pool: any N_A graphs (in-degree >= n-f), including the
		// Lemma 24 chain graphs — midpoint tolerates extra messages.
		var pool []graph.Graph
		for k := 0; k < 40; k++ {
			pool = append(pool, graph.RandomMinInDegree(rng, n, f))
		}
		g := graph.RandomMinInDegree(rng, n, f)
		h := graph.RandomMinInDegree(rng, n, f)
		hs, ks, err := graph.Lemma24Chain(g, h, f)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, hs...)
		pool = append(pool, ks...)
		src := core.Cycle{Graphs: pool}

		mid := async.AsCoreAlgorithm("rb-midpoint", async.MidpointUpdate)
		trMid := core.Run(mid, inputs, src, len(pool))
		if w := trMid.WorstRoundRatio(); w > 0.5+1e-9 {
			t.Errorf("n=%d f=%d: round-based midpoint worst ratio %v exceeds 1/2", n, f, w)
		}

		// Selected-mean pool: in-degree exactly n-f — the genuine
		// asynchronous round steps on exactly the first n-f arrivals, and
		// the rank-pairing argument behind the 1/(⌈n/f⌉-1) bound needs
		// equal receive-set sizes.
		var exactPool []graph.Graph
		for k := 0; k < 60; k++ {
			exactPool = append(exactPool, graph.RandomExactInDegree(rng, n, f))
		}
		sel := async.AsCoreAlgorithm("rb-selected-mean", async.SelectedMeanUpdate(f))
		trSel := core.Run(sel, inputs, core.Cycle{Graphs: exactPool}, len(exactPool))
		if w := trSel.WorstRoundRatio(); w > selBound+1e-9 {
			t.Errorf("n=%d f=%d: selected-mean worst ratio %v exceeds 1/(⌈n/f⌉-1) = %v",
				n, f, w, selBound)
		}
	}
}

// TestAsyncRoundsRealizeNAGraphs cross-checks the Section 8.1 embedding in
// the other direction: a concrete delay schedule in the event-driven
// simulator realizes a chosen N_A graph as "the n-f messages heard first"
// — messages the graph delivers get delay 0.5, all others 1.0, so each
// agent's round-r quorum is exactly its in-neighborhood.
func TestAsyncRoundsRealizeNAGraphs(t *testing.T) {
	n, f := 4, 1
	target := graph.SilenceBlock(n, f, 0) // nobody hears agent 0
	inputs := []float64{0, 1, 1, 1}
	procs := newRoundBasedSystem(n, f, inputs, async.MidpointUpdate, 1)
	delay := func(from, to int, _ float64) float64 {
		if target.HasEdge(from, to) {
			return 0.5
		}
		return 1.0
	}
	sim, err := async.NewSimulator(procs, delay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.RunToQuiescence(100_000) {
		t.Fatal("no quiescence")
	}
	// Agent 0 hears itself (instant) plus 1, 2, 3 at 0.5 but needs only
	// n-f = 3: quorum = {0, 1, 2} or {0, 1, 3} or {0, 2, 3} — the first
	// three arrivals; with equal delays the heap tiebreak is send order
	// (1 before 2 before 3), so agent 0 hears {0, 1, 2}: midpoint 0.5.
	// Agents 1..3 get 1's own instant message plus 2 and 3 at delay 0.5
	// (from 0 only at 1.0): quorum {self, 2, 3}-ish, all values 1.
	sync := core.NewConfig(async.AsCoreAlgorithm("rb-midpoint", async.MidpointUpdate), inputs)
	wantCfg := sync.Step(graph.NewBuilder(n).
		SetInRow(0, []uint64{0b0111}).
		SetInRow(1, []uint64{0b1110}).
		SetInRow(2, []uint64{0b1110}).
		SetInRow(3, []uint64{0b1110}).
		Graph())
	for i := 0; i < n; i++ {
		if got, want := procs[i].Output(), wantCfg.Output(i); got != want {
			t.Errorf("agent %d: async output %v, sync-embedded output %v", i, got, want)
		}
	}
}
