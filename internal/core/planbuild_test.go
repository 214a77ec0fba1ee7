package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// buildReference is the segmentation StepPlan.build computed before its
// distinct-fold scan: every new segment is compared with every earlier
// segment, O(segments²) row scans. It stays as the oracle build must
// match segment for segment and delta row for delta row.
func (p *StepPlan) buildReference(g graph.Graph) {
	p.G = g
	p.Segs = p.Segs[:0]
	n, w := g.N(), g.Words()
	if cap(p.deltaArena) < n*w {
		p.deltaArena = make([]uint64, 0, n*w)
	}
	p.deltaArena = p.deltaArena[:0]
	for j := 0; j < n; {
		row := g.InRow(j)
		end := j + 1
		for end < n && graph.SetsEqual(g.InRow(end), row) {
			end++
		}
		fold := len(p.Segs)
		base, baseBits := -1, 1
		for i := range p.Segs {
			s := &p.Segs[i]
			srow := g.InRow(s.Start)
			if graph.SetsEqual(srow, row) {
				fold = i
				break
			}
			if s.Fold == i && rowSubset(srow, row) {
				if pc := graph.SetCount(srow); pc > baseBits {
					base, baseBits = i, pc
				}
			}
		}
		seg := MaskSeg{Start: j, End: end, Fold: fold, Base: -1}
		if fold == len(p.Segs) && base >= 0 {
			seg.Base, seg.Delta = base, len(p.deltaArena)
			for x, bm := range g.InRow(p.Segs[base].Start) {
				p.deltaArena = append(p.deltaArena, row[x]&^bm)
			}
		}
		p.Segs = append(p.Segs, seg)
		j = end
	}
	if cap(p.F0) < len(p.Segs) {
		p.F0 = make([]float64, len(p.Segs))
		p.F1 = make([]float64, len(p.Segs))
	}
	p.F0 = p.F0[:len(p.Segs)]
	p.F1 = p.F1[:len(p.Segs)]
}

// churnRows returns a churn round as scenario.Churn draws it: up to
// maxDown agents are down, and every agent hears the up agents and
// itself.
func churnRows(rng *rand.Rand, n, maxDown int) graph.Graph {
	up := make([]uint64, graph.WordsFor(n))
	for i := 0; i < n; i++ {
		up[i/64] |= 1 << uint(i%64)
	}
	for _, i := range rng.Perm(n)[:rng.Intn(maxDown+1)] {
		up[i/64] &^= 1 << uint(i%64)
	}
	return graph.Broadcast(n, up)
}

// nestedRows draws a chain of nested sets S0 ⊂ S1 ⊂ ... and gives every
// agent one of them plus itself, now and then with a few extra bits:
// bases of bases, equally wide candidate bases and multi-bit deltas.
func nestedRows(rng *rand.Rand, n int) graph.Graph {
	w := graph.WordsFor(n)
	levels := make([][]uint64, 1+rng.Intn(5))
	cur := make([]uint64, w)
	for k := range levels {
		for add := rng.Intn(n/4 + 2); add > 0; add-- {
			i := rng.Intn(n)
			cur[i/64] |= 1 << uint(i%64)
		}
		levels[k] = slices.Clone(cur)
	}
	b := graph.NewBuilder(n)
	row := make([]uint64, w)
	for j := 0; j < n; j++ {
		copy(row, levels[rng.Intn(len(levels))])
		if rng.Intn(4) == 0 {
			i := rng.Intn(n)
			row[i/64] |= 1 << uint(i%64)
		}
		b.SetInRow(j, row)
	}
	return b.Graph()
}

// planFamilies are the graph shapes the plan build is checked on: the
// churn and deaf rounds the workloads step, shift graphs (every row
// distinct), random rows, and nested rows.
var planFamilies = []struct {
	name string
	gen  func(rng *rand.Rand, n int) graph.Graph
}{
	{"churn", func(rng *rand.Rand, n int) graph.Graph { return churnRows(rng, n, rng.Intn(n)) }},
	{"deaf", func(rng *rand.Rand, n int) graph.Graph {
		g := graph.Complete(n)
		for k := rng.Intn(4); k > 0; k-- {
			g = graph.Deaf(g, rng.Intn(n))
		}
		return g
	}},
	{"shift", func(rng *rand.Rand, n int) graph.Graph {
		b := graph.NewBuilder(n)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			s := rng.Intn(n)
			for j := 0; j < n; j++ {
				b.Edge((j+s)%n, j)
			}
		}
		return b.Graph()
	}},
	{"random", func(rng *rand.Rand, n int) graph.Graph { return graph.Random(rng, n, rng.Float64()) }},
	{"nested", nestedRows},
}

// TestPlanBuildMatchesReference holds the distinct-fold build to the
// reference scan: identical segments (Start, End, Fold, Base, Delta) and
// identical delta rows, on every family at widths on both sides of each
// word boundary. One plan and one scratch are rebuilt over and over, as
// the runner recycles them.
func TestPlanBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var got StepPlan
	var folds []distinctFold
	for _, n := range []int{1, 2, 63, 64, 65, 128, 256} {
		for _, fam := range planFamilies {
			t.Run(fmt.Sprintf("%s/n%d", fam.name, n), func(t *testing.T) {
				for trial := 0; trial < 40; trial++ {
					g := fam.gen(rng, n)
					folds = got.build(g, folds)
					var want StepPlan
					want.buildReference(g)
					if !slices.Equal(got.Segs, want.Segs) {
						t.Fatalf("trial %d on %v:\nbuild     %+v\nreference %+v", trial, g, got.Segs, want.Segs)
					}
					for i := range got.Segs {
						if s := &got.Segs[i]; s.Base >= 0 && !slices.Equal(got.DeltaRow(s), want.DeltaRow(s)) {
							t.Fatalf("trial %d segment %d: delta %x, reference %x", trial, i, got.DeltaRow(s), want.DeltaRow(s))
						}
					}
					if len(got.F0) != len(got.Segs) || len(got.F1) != len(got.Segs) {
						t.Fatalf("trial %d: fold scratch of %d and %d slots for %d segments", trial, len(got.F0), len(got.F1), len(got.Segs))
					}
				}
			})
		}
	}
}

// BenchmarkPlanBuild times one plan build on churn rounds as the grids
// draw them (churn:16 with at most 4 agents down, churn:256 with at most
// 64), with the distinct-fold build and with the reference scan.
func BenchmarkPlanBuild(b *testing.B) {
	for _, c := range []struct{ n, maxDown int }{{16, 4}, {256, 64}} {
		rng := rand.New(rand.NewSource(1))
		pool := make([]graph.Graph, 64)
		for k := range pool {
			pool[k] = churnRows(rng, c.n, c.maxDown)
		}
		b.Run(fmt.Sprintf("n%d", c.n), func(b *testing.B) {
			var p StepPlan
			var folds []distinctFold
			for i := 0; i < b.N; i++ {
				folds = p.build(pool[i%len(pool)], folds)
			}
		})
		b.Run(fmt.Sprintf("n%d/reference", c.n), func(b *testing.B) {
			var p StepPlan
			for i := 0; i < b.N; i++ {
				p.buildReference(pool[i%len(pool)])
			}
		})
	}
}
