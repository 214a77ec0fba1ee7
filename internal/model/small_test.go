package model

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestModelString(t *testing.T) {
	m := TwoAgent()
	s := m.String()
	for _, frag := range []string{"Model(n=2, 3 graphs)", "0->1", "1->0"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q: %s", frag, s)
		}
	}
}

func TestGraphAccessor(t *testing.T) {
	m := MustNew(graph.H(2), graph.H(0))
	if !m.Graph(0).Equal(graph.H(2)) || !m.Graph(1).Equal(graph.H(0)) {
		t.Error("Graph(i) order wrong")
	}
	gs := m.Graphs()
	gs[0] = graph.H(1) // mutate the copy
	if !m.Graph(0).Equal(graph.H(2)) {
		t.Error("Graphs() exposed internal storage")
	}
}

func TestSubPanicsOnBadIndex(t *testing.T) {
	m := TwoAgent()
	defer func() {
		if recover() == nil {
			t.Error("Sub with out-of-range index did not panic")
		}
	}()
	m.Sub([]int{7})
}
