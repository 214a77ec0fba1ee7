package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
)

func TestScheduleAtLasso(t *testing.T) {
	a := graph.Complete(3)
	b := graph.Cycle(3)
	c := graph.Star(3, 0)
	s := core.Schedule{Prefix: []graph.Graph{a, b}, Loop: []graph.Graph{c, b}}
	want := []graph.Graph{a, b, c, b, c, b, c}
	for i, g := range want {
		if got := s.At(i + 1); !got.Equal(g) {
			t.Fatalf("round %d: got %v want %v", i+1, got, g)
		}
	}
}

func TestScheduleFiniteRepeatsLast(t *testing.T) {
	a := graph.Complete(3)
	b := graph.Cycle(3)
	s := core.Schedule{Prefix: []graph.Graph{a, b}}
	if !s.At(2).Equal(b) || !s.At(3).Equal(b) || !s.At(100).Equal(b) {
		t.Fatal("finite schedule does not repeat its last graph")
	}
}

func TestScheduleIsOblivious(t *testing.T) {
	if !core.IsOblivious(core.Schedule{Prefix: []graph.Graph{graph.Complete(2)}}) {
		t.Fatal("Schedule must be oblivious so it can drive the dense backend")
	}
}

// TestRunBatchMatchesSingleRuns drives B runs with distinct per-run
// schedules through RunBatch and through individual Run calls on both
// paths; outputs must be bit-identical.
func TestRunBatchMatchesSingleRuns(t *testing.T) {
	const n, B, rounds = 5, 7, 13
	alg := algorithms.Midpoint{}
	inputs := make([][]float64, B)
	srcs := make([]core.PatternSource, B)
	for i := 0; i < B; i++ {
		in := make([]float64, n)
		for j := range in {
			in[j] = float64((i*31+j*17)%11) / 11
		}
		inputs[i] = in
		srcs[i] = core.Schedule{
			Prefix: []graph.Graph{graph.Star(n, i%n), graph.Cycle(n)},
			Loop:   []graph.Graph{graph.Complete(n), graph.Star(n, (i+1)%n)},
		}
	}
	br, err := core.RunBatch(context.Background(), alg, inputs, srcs, rounds)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	for i := 0; i < B; i++ {
		br.Outputs(i, out)
		for k, single := range []core.Algorithm{core.AgentsOnly(alg), alg} {
			tr := core.Run(single, inputs[i], srcs[i], rounds)
			got := tr.Outputs[rounds]
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(out[j]) {
					t.Fatalf("run %d agent %d (%s path): single %v != batch %v", i, j, [...]string{"agents", "dense"}[k], got[j], out[j])
				}
			}
		}
	}
}

func TestRunBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := core.Schedule{Prefix: []graph.Graph{graph.Complete(3)}}
	_, err := core.RunBatch(ctx, algorithms.Midpoint{}, [][]float64{{0, 1, 0.5}}, []core.PatternSource{src}, 10)
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
