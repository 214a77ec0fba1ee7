package consensus

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// BenchmarkSessionVsCore is the facade-overhead acceptance race: the
// n=16, 1000-round dense contraction race of BenchmarkContractionDense
// (deaf(K_16) graphs in round-robin, midpoint), once driven directly
// through core.RunConfig and once through consensus.Session.Run.
// The session must be within 5% of the direct path: its only additions
// are the registry-resolved source construction and the context check,
// which compiles to nothing for non-cancellable contexts.
func BenchmarkSessionVsCore(b *testing.B) {
	const n, rounds = 16, 1000
	inputs := SpreadInputs(n)
	m := model.DeafModel(graph.Complete(n))
	alg, err := Algorithms.New("midpoint", n)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("core", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := core.Cycle{Graphs: m.Graphs()}
			tr := core.RunConfig(alg.Name(), core.NewConfig(alg, inputs), src, rounds)
			if tr.Rounds() != rounds {
				b.Fatal("short race")
			}
		}
	})

	session, err := New(
		WithModel("deaf:16"),
		WithAlgorithm("midpoint"),
		WithAdversary("cycle"),
		WithRounds(rounds),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("session", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := session.Run(ctx)
			if err != nil || res.Rounds() != rounds {
				b.Fatal("short race")
			}
		}
	})
}

// BenchmarkSweepCached measures the fingerprint cache: the same 8-entry
// sweep, answered entirely from cache after the first call.
func BenchmarkSweepCached(b *testing.B) {
	specs := make([]RunSpec, 8)
	for i := range specs {
		specs[i] = RunSpec{
			Model: "deaf:8", Algorithm: "midpoint", Adversary: "random",
			Rounds: 64, Seed: int64(i + 1),
		}
	}
	cache := NewSweepCache()
	ctx := context.Background()
	if _, err := Sweep(ctx, specs, WithSweepCache(cache)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := Sweep(ctx, specs, WithSweepCache(cache))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if !r.Cached {
				b.Fatal("cache miss on repeated sweep")
			}
		}
	}
}

// sweepBatchSpecs returns the acceptance sweep: 64 specs over deaf(K16)
// midpoint, 1000 rounds each, inputs varied per spec (a Table-1-style
// input family) so nothing is answered from cache.
func sweepBatchSpecs() []RunSpec {
	specs := make([]RunSpec, 64)
	for i := range specs {
		inputs := SpreadInputs(16)
		inputs[2] = float64(i) / 64
		specs[i] = RunSpec{Model: "deaf:16", Algorithm: "midpoint", Adversary: "cycle", Rounds: 1000, Inputs: inputs}
	}
	return specs
}

// BenchmarkSweepBatch is the batch plane's acceptance race: the 64-spec,
// n=16, 1000-round sweep once through the goroutine-per-run path
// (SweepBatchSize(1), PR 3's Sweep semantics) and once through the tiled
// batch plane, at equal worker count. The acceptance criterion is >= 2x
// throughput with byte-identical per-run outputs and cache fingerprints
// (TestSweepBatchMatchesSingle / TestSweepBatchSharesCacheKeys).
func BenchmarkSweepBatch(b *testing.B) {
	specs := sweepBatchSpecs()
	ctx := context.Background()
	for _, mode := range []struct {
		name string
		opts []SweepOption
	}{
		{"single", []SweepOption{SweepBatchSize(1)}},
		{"batch", nil},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := append([]SweepOption{WithSweepCache(NewSweepCache())}, mode.opts...)
				results, err := Sweep(ctx, specs, opts...)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != "" || r.Summary == nil {
						b.Fatalf("spec %d failed: %s", r.Index, r.Err)
					}
				}
			}
			runs := float64(len(specs)) * float64(b.N)
			b.ReportMetric(runs/b.Elapsed().Seconds(), "runs/s")
		})
	}
}

// BenchmarkSessionStreaming measures the constant-memory streaming path
// on the same dense race.
func BenchmarkSessionStreaming(b *testing.B) {
	session, err := New(
		WithModel("deaf:16"),
		WithAlgorithm("midpoint"),
		WithAdversary("cycle"),
		WithRounds(1000),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		last := 0
		for snap, err := range session.Rounds(ctx) {
			if err != nil {
				b.Fatal(err)
			}
			last = snap.Round
		}
		if last != 1000 {
			b.Fatal("short race")
		}
	}
}
