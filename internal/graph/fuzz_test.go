package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzProductInvariants checks product invariants on fuzzer-chosen seeds:
// self-loops preserved, rooted*rooted stays rooted when sharing a root,
// and product agrees with the brute-force edge definition.
func FuzzProductInvariants(f *testing.F) {
	f.Add(int64(1), 3)
	f.Add(int64(42), 7)
	f.Add(int64(-9), 2)
	f.Fuzz(func(t *testing.T, seed int64, nRaw int) {
		n := nRaw%8 + 2
		if n < 2 {
			n = -n + 2
		}
		rng := rand.New(rand.NewSource(seed))
		g := Random(rng, n, 0.4)
		h := Random(rng, n, 0.4)
		p := Product(g, h)
		for i := 0; i < n; i++ {
			if !p.HasEdge(i, i) {
				t.Fatalf("product lost self-loop at %d", i)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := false
				for k := 0; k < n; k++ {
					if g.HasEdge(i, k) && h.HasEdge(k, j) {
						want = true
						break
					}
				}
				if p.HasEdge(i, j) != want {
					t.Fatalf("product edge (%d,%d) mismatch", i, j)
				}
			}
		}
	})
}

func TestMaxNodesBoundary(t *testing.T) {
	// Everything must work at the n = 64 representation boundary.
	g := Complete(64)
	if !g.IsRooted() || !g.IsNonSplit() || !slices.Equal(rootNodes(g), allNodes(64)) {
		t.Error("Complete(64) predicates wrong")
	}
	id := New(64)
	if id.IsRooted() || SetCount(id.RootsSet()) != 0 {
		t.Error("New(64) should have no roots")
	}
	p := Product(g, id)
	if !p.Equal(g) {
		t.Error("product with identity broken at n=64")
	}
	star := Star(64, 63)
	if got := star.RootsSet(); !SetsEqual(got, []uint64{1 << 63}) {
		t.Errorf("Star(64,63) roots = %x", got)
	}
	d := Deaf(g, 63)
	if !d.IsDeaf(63) {
		t.Error("Deaf at node 63 broken")
	}
	back, err := FromInWords(64, g.in)
	if err != nil || !back.Equal(g) {
		t.Errorf("FromInWords round trip at n=64: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	if rr := RandomRooted(rng, 64, 0.2); !rr.IsRooted() {
		t.Error("RandomRooted(64) broken")
	}
	if !slices.Equal(rootNodes(Cycle(64)), allNodes(64)) {
		t.Error("Cycle(64) roots broken")
	}
}

func TestNodesToMaskBoundary(t *testing.T) {
	if NodesToMask([]int{0, 63}) != 1|1<<63 {
		t.Error("NodesToMask top bit wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("NodesToMask(64) did not panic")
		}
	}()
	NodesToMask([]int{64})
}
