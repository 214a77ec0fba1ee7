package core_test

import (
	"testing"

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
