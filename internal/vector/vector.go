// Package vector lifts the one-dimensional consensus machinery to
// d-dimensional values. The paper states asymptotic consensus in R^d
// (Section 2.1) and notes that its algorithms and bounds are effective in
// dimension one — higher-dimensional inputs embed into a line for the
// lower bounds, and coordinate-wise execution lifts the convex combination
// algorithms for the upper bounds (validity then holds with respect to the
// axis-aligned bounding box, which contains the convex hull's extent per
// coordinate).
//
// Runner executes one core.Algorithm instance per coordinate, feeding all
// of them the same communication pattern — exactly what a d-dimensional
// agent running the algorithm on each coordinate would do.
package vector

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
)

// Point is a d-dimensional value.
type Point []float64

// Clone returns an independent copy.
func (p Point) Clone() Point {
	cp := make(Point, len(p))
	copy(cp, p)
	return cp
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point {
	if len(p) != len(q) {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", len(p), len(q)))
	}
	out := make(Point, len(p))
	for i := range p {
		out[i] = p[i] - q[i]
	}
	return out
}

// Norm returns the Euclidean norm.
func (p Point) Norm() float64 {
	sum := 0.0
	for _, v := range p {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return p.Sub(q).Norm() }

// Diameter returns the largest pairwise Euclidean distance, the paper's
// diam over R^d.
func Diameter(points []Point) float64 {
	d := 0.0
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			if x := Dist(points[i], points[j]); x > d {
				d = x
			}
		}
	}
	return d
}

// BoundingBox returns per-coordinate [lo, hi] hulls of the points.
func BoundingBox(points []Point) (lo, hi Point) {
	if len(points) == 0 {
		return nil, nil
	}
	dim := len(points[0])
	lo, hi = points[0].Clone(), points[0].Clone()
	for _, p := range points[1:] {
		if len(p) != dim {
			panic("vector: ragged point set")
		}
		for c := 0; c < dim; c++ {
			lo[c] = math.Min(lo[c], p[c])
			hi[c] = math.Max(hi[c], p[c])
		}
	}
	return lo, hi
}

// InBox reports whether p lies in the axis-aligned box [lo, hi], within
// tolerance tol.
func InBox(p, lo, hi Point, tol float64) bool {
	for c := range p {
		if p[c] < lo[c]-tol || p[c] > hi[c]+tol {
			return false
		}
	}
	return true
}

// Runner executes a scalar consensus algorithm coordinate-wise on
// d-dimensional inputs under a single shared communication pattern.
//
// With a dense-capable algorithm (core.AsDense), the d coordinates run
// as one core.BatchRunner — a single flat struct-of-arrays batch of d
// runs stepped together under the shared graph, so the per-round
// receiver segmentation is computed once for all coordinates instead of
// once per coordinate. Other algorithms run one agent configuration per
// coordinate. The two paths are bit-identical.
type Runner struct {
	alg     core.Algorithm
	dim     int
	n       int
	configs []*core.Config    // one per coordinate (Agent path)
	batch   *core.BatchRunner // all coordinates as one batch (dense path)
	scratch []float64
}

// NewRunner builds the per-coordinate configurations from the initial
// points (one per agent; all points must share a dimension >= 1).
func NewRunner(alg core.Algorithm, inputs []Point) (*Runner, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("vector: no agents")
	}
	dim := len(inputs[0])
	if dim < 1 {
		return nil, fmt.Errorf("vector: zero-dimensional inputs")
	}
	for i, p := range inputs {
		if len(p) != dim {
			return nil, fmt.Errorf("vector: agent %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	r := &Runner{alg: alg, dim: dim, n: len(inputs)}
	if d, ok := core.AsDense(alg); ok {
		coords := make([][]float64, dim)
		for c := 0; c < dim; c++ {
			coords[c] = make([]float64, len(inputs))
			for i, p := range inputs {
				coords[c][i] = p[c]
			}
		}
		r.batch = core.NewBatchRunner(d, coords)
		r.scratch = make([]float64, len(inputs))
		return r, nil
	}
	coords := make([]float64, len(inputs))
	for c := 0; c < dim; c++ {
		for i, p := range inputs {
			coords[i] = p[c]
		}
		r.configs = append(r.configs, core.NewConfig(alg, coords))
	}
	return r, nil
}

// Dim returns the value dimension.
func (r *Runner) Dim() int { return r.dim }

// N returns the number of agents.
func (r *Runner) N() int { return r.n }

// Round returns the number of completed rounds.
func (r *Runner) Round() int {
	if r.batch != nil {
		return r.batch.Round()
	}
	return r.configs[0].Round()
}

// Step applies one round with communication graph g to every coordinate.
func (r *Runner) Step(g graph.Graph) {
	if r.batch != nil {
		r.batch.Step(g)
		return
	}
	for c := range r.configs {
		r.configs[c] = r.configs[c].Step(g)
	}
}

// Run applies rounds drawn from src. On the dense path, oblivious
// sources (core.Oblivious) are queried without a configuration; a
// configuration-inspecting source is handed coordinate 0's state
// materialized as agents, so adaptive adversaries remain correct (if
// slower — wrap the algorithm in core.AgentsOnly for adversarial vector
// runs).
func (r *Runner) Run(src core.PatternSource, rounds int) {
	for t := 0; t < rounds; t++ {
		var g graph.Graph
		switch {
		case r.batch == nil:
			g = src.Next(r.Round()+1, r.configs[0])
		case core.IsOblivious(src):
			g = src.Next(r.Round()+1, nil)
		default:
			g = src.Next(r.Round()+1, r.batch.MaterializeRun(0))
		}
		r.Step(g)
	}
}

// Positions returns the agents' current d-dimensional values.
func (r *Runner) Positions() []Point {
	n := r.N()
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		out[i] = make(Point, r.dim)
	}
	if r.batch != nil {
		for c := 0; c < r.dim; c++ {
			r.batch.Outputs(c, r.scratch)
			for i := 0; i < n; i++ {
				out[i][c] = r.scratch[i]
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		for c := 0; c < r.dim; c++ {
			out[i][c] = r.configs[c].Output(i)
		}
	}
	return out
}

// Diameter returns the current Euclidean diameter of the agents' values.
func (r *Runner) Diameter() float64 { return Diameter(r.Positions()) }
