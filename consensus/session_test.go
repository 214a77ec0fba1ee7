package consensus

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

func TestSessionDefaultsAndValidation(t *testing.T) {
	s, err := New(WithModel("deaf:4"))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 4 || s.Algorithm() != "midpoint" || s.Adversary() != "cycle" || s.RoundBudget() != DefaultRounds {
		t.Errorf("defaults: n=%d alg=%s adv=%s rounds=%d", s.N(), s.Algorithm(), s.Adversary(), s.RoundBudget())
	}
	if got := s.Inputs(); got[0] != 0 || got[1] != 1 || got[2] != 0.5 {
		t.Errorf("default inputs = %v", got)
	}

	for _, bad := range [][]Option{
		{},                   // no model, no inputs
		{WithModel("bogus")}, // unknown model
		{WithModel("deaf:3"), WithAlgorithm("bogus")},                                  // unknown algorithm
		{WithModel("deaf:3"), WithAdversary("bogus")},                                  // unknown adversary
		{WithModel("deaf:3"), WithInputs(0, 1)},                                        // arity mismatch
		{WithModel("deaf:3"), WithRounds(-1)},                                          // negative rounds
		{WithModel("deaf:3"), WithDepth(-1)},                                           // negative depth
		{WithInputs(0, 1, 0.5)},                                                        // inputs without model or adversary
		{WithInputs(0, 1, 0.5), WithAdversary("cycle")},                                // model-needing adversary without model
		{WithInputs(0, 1, 0.5), WithValencyFloor(), WithAdversary("randomrooted:0.5")}, // floor without model
	} {
		if _, err := New(bad...); err == nil {
			t.Errorf("New(%d opts) succeeded, want error", len(bad))
		}
	}
}

// A session run must be bit-identical to driving the engines directly.
func TestSessionRunMatchesCore(t *testing.T) {
	const rounds = 9
	s, err := New(
		WithModel("deaf:4"),
		WithAdversary("random"),
		WithSeed(42),
		WithInputs(0, 1, 0.2, 0.8),
		WithRounds(rounds),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m := model.DeafModel(graph.Complete(4))
	alg, err := Algorithms.New("midpoint", 4)
	if err != nil {
		t.Fatal(err)
	}
	src := core.RandomFromModel{Model: m, Rng: rand.New(rand.NewSource(42))}
	tr := core.Run(alg, []float64{0, 1, 0.2, 0.8}, src, rounds)

	for tt := 0; tt <= rounds; tt++ {
		want, got := tr.Outputs[tt], res.Outputs(tt)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("round %d agent %d: session %v, core %v", tt, i, got[i], want[i])
			}
		}
	}
	if res.GeometricRate() != tr.GeometricRate() {
		t.Errorf("geometric rate %v vs %v", res.GeometricRate(), tr.GeometricRate())
	}
}

// Both execution paths — the Agent path through an AgentsOnly library,
// the dense path by capability — must produce identical sessions, and
// streaming must agree with the materialized run.
func TestSessionBackendParityAndStreaming(t *testing.T) {
	libs := []struct {
		path string
		lib  *Library
	}{{"agents", agentsOnlyLibrary(t)}, {"dense", nil}}
	for _, algorithm := range []string{"midpoint", "amortized", "quantized:0.125"} {
		var runs [][]float64
		for _, l := range libs {
			s, err := New(
				WithLibrary(l.lib),
				WithModel("deaf:5"),
				WithAlgorithm(algorithm),
				WithAdversary("cycle"),
				WithRounds(7),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, res.FinalOutputs())

			// Streaming must visit the same states.
			var last Snapshot
			count := 0
			for snap, err := range s.Rounds(context.Background()) {
				if err != nil {
					t.Fatal(err)
				}
				if snap.Round != count {
					t.Fatalf("snapshot round %d at position %d", snap.Round, count)
				}
				count++
				last = snap
			}
			if count != 8 {
				t.Fatalf("%s/%s: %d snapshots, want 8", algorithm, l.path, count)
			}
			final := res.FinalOutputs()
			for i := range final {
				if last.Outputs[i] != final[i] {
					t.Fatalf("%s/%s: streamed final %v, run final %v", algorithm, l.path, last.Outputs, final)
				}
			}
		}
		a, b := runs[0], runs[1]
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: agents/dense divergence %v vs %v", algorithm, a, b)
			}
		}
	}
}

// The certified floor streamed by a greedy session must match the direct
// estimator bounds, and sessions of one configuration share one engine.
func TestSessionFloorAndEngineSharing(t *testing.T) {
	newSession := func() *Session {
		s, err := New(
			WithModel("twoagent"),
			WithAlgorithm("twothirds"),
			WithAdversary("greedy"),
			WithDepth(4),
			WithInputs(0, 1),
			WithRounds(3),
			WithValencyFloor(),
			WithGreedyTrace(),
		)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := newSession(), newSession()
	if s1.engine == nil || s1.engine != s2.engine {
		t.Fatal("sessions of one configuration must share one pooled engine")
	}

	var floors []float64
	for snap, err := range s1.Rounds(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if !snap.HasFloor {
			t.Fatal("floor missing")
		}
		floors = append(floors, snap.Floor)
		if snap.Round > 0 && len(snap.Successors) != 3 {
			t.Fatalf("round %d: %d successor intervals, want 3", snap.Round, len(snap.Successors))
		}
	}
	// Replay directly against the engines.
	m := model.TwoAgent()
	alg, _ := Algorithms.New("twothirds", 2)
	est := valency.NewEstimator(m, 4, alg.Convex())
	c := core.NewConfig(alg, []float64{0, 1})
	if floors[0] != est.DeltaLower(c) {
		t.Errorf("round-0 floor %v, estimator %v", floors[0], est.DeltaLower(c))
	}
	// The greedy race decays by 1/3 per round for two-thirds (up to the
	// estimator's settle tolerance).
	for tt := 1; tt < len(floors); tt++ {
		ratio := floors[tt] / floors[tt-1]
		if ratio < 1.0/3.0-1e-6 || ratio > 1.0/3.0+1e-6 {
			t.Errorf("floor ratio at round %d = %v, want 1/3", tt, ratio)
		}
	}
}

// cancelAfterLibrary builds a library whose "cancelafter" adversary
// cancels the given context after k rounds, to exercise mid-run
// cancellation.
func cancelAfterLibrary(t *testing.T, cancel context.CancelFunc, k int) *Library {
	t.Helper()
	reg := NewAdversaryRegistry()
	err := reg.Register(AdversaryFactory{
		Name:       "cancelafter",
		Usage:      "cancelafter",
		Summary:    "test source cancelling its context mid-run",
		NeedsModel: true,
		New: func(arg string, env AdversaryEnv) (core.PatternSource, error) {
			return core.Func(func(round int, c *core.Config) graph.Graph {
				if round == k {
					cancel()
				}
				return env.Model.Graph(0)
			}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Library{Adversaries: reg}
}

func TestSessionRunHonorsCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := New(
		WithModel("deaf:4"),
		WithAdversary("cancelafter"),
		WithRounds(1000),
		WithLibrary(cancelAfterLibrary(t, cancel, 5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); err != context.Canceled {
		t.Fatalf("Run under mid-run cancellation: %v, want context.Canceled", err)
	}

	// A pre-cancelled context stops before the first round.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := s.Run(pre); err != context.Canceled {
		t.Fatalf("Run under pre-cancelled context: %v, want context.Canceled", err)
	}
}

func TestSessionRoundsHonorsCancellationMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := New(
		WithModel("deaf:4"),
		WithAdversary("cancelafter"),
		WithRounds(1000),
		WithLibrary(cancelAfterLibrary(t, cancel, 7)),
	)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	var got error
	for snap, err := range s.Rounds(ctx) {
		if err != nil {
			got = err
			break
		}
		seen = snap.Round
	}
	if got != context.Canceled {
		t.Fatalf("stream error %v, want context.Canceled", got)
	}
	if seen == 0 || seen >= 1000 {
		t.Fatalf("stream stopped after round %d, want mid-run", seen)
	}
}

// N parallel sessions sharing the default registries, the engine pool,
// and the sweep cache — the -race acceptance test.
func TestConcurrentSessionsSharedRegistriesAndCache(t *testing.T) {
	cache := NewSweepCache()
	specs := []RunSpec{
		{Model: "twoagent", Algorithm: "twothirds", Adversary: "greedy", Rounds: 4, Depth: 4},
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "random", Rounds: 8, Seed: 3},
		{Model: "psi:4", Algorithm: "amortized", Adversary: "cycle", Rounds: 6},
	}
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// Direct session use...
			s, err := New(
				WithModel("twoagent"),
				WithAlgorithm("twothirds"),
				WithAdversary("greedy"),
				WithDepth(4),
				WithRounds(4),
			)
			if err != nil {
				errs <- err
				return
			}
			if _, err := s.Run(context.Background()); err != nil {
				errs <- err
				return
			}
			// ...and sweeps over the shared cache, concurrently.
			results, err := Sweep(context.Background(), specs, WithSweepCache(cache), SweepWorkers(2))
			if err != nil {
				errs <- err
				return
			}
			for _, r := range results {
				if r.Err != "" {
					errs <- &errString{r.Err}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses, entries := cache.Stats()
	if entries == 0 || hits == 0 {
		t.Errorf("shared cache unused: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
}

type errString struct{ s string }

func (e *errString) Error() string { return e.s }
