package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// This file implements the settle kernels (core.DenseSettler): the whole
// constant-graph continuation "repeat g until the output hull is at most
// tol wide, for at most settle rounds" run inside the algorithm, in place
// of core.Settle's generic DenseStep + OutputsDense + Hull loop.
//
// Bit-identity argument. TwoThirds steps its two scalars with the
// StepDense expressions verbatim, and its hull is the two-element Hull.
// Midpoint steps receiver row classes (core.RowClasses). Round 1 folds
// each class's row over the agent values exactly as StepDense does, so
// every receiver of a class holds the class's value bit for bit. From
// round 2 on a receiver's row holds only class values, so its fold is a
// fold over its sender classes' values. Without a NaN among them, min
// and max are exact selections (signed zeros included) whose result
// depends only on the set of values, not on order or multiplicity — the
// argument hullAcc and MaskSeg.Fold rest on — and the builtins agree
// with core.Fmin/Fmax. With a NaN, the midpoint is NaN under either
// convention: the builtins give NaN, and core.Fmin/Fmax give NaN or the
// infinities, whose sum is NaN. The hull is the core.Fmin/Fmax fold over
// the class values: the same set of values Hull folds over the agents,
// so the same bounds. The only freedom left is a NaN's payload, and no
// payload escapes: a hull with a NaN never passes hi-lo <= tol, and
// NaN-ness does not depend on payloads. So every round's convergence test, and the hull of the
// converging round, matches the generic loop's.
// TestSettleKernelsMatchGenericLoop and FuzzSettleKernels pin it.

// SettleDense implements core.DenseSettler on receiver row classes with
// the hull fused into the class step. One body serves every width: rows
// are read only to classify and in round 1, and every later round touches
// class indices alone.
func (Midpoint) SettleDense(st *core.DenseState, g graph.Graph, settle int, tol float64, sc *core.SettleScratch) (lo, hi float64, round int, ok bool) {
	y := st.Y
	if lo, hi = core.Hull(y); hi-lo <= tol {
		return lo, hi, 0, true
	}
	if settle == 0 {
		return 0, 0, 0, false
	}
	rc := sc.RowClasses(g)
	cur, next := sc.ClassValues(len(rc.Rep))
	for c, j := range rc.Rep {
		flo, fhi := foldMinMax(y, g.InRow(int(j)))
		cur[c] = (flo + fhi) / 2
	}
	lo, hi = core.Hull(cur)
	for r := 1; ; r++ {
		if hi-lo <= tol {
			return lo, hi, r, true
		}
		if r == settle {
			return 0, 0, r, false
		}
		v := foldMid(cur, rc.Senders[:rc.Start[1]])
		next[0], lo, hi = v, v, v
		for c := 1; c < len(next); c++ {
			v := foldMid(cur, rc.Senders[rc.Start[c]:rc.Start[c+1]])
			next[c] = v
			lo, hi = core.Fmin(lo, v), core.Fmax(hi, v)
		}
		cur, next = next, cur
	}
}

// foldMid returns the midpoint of the min and max of vals over the
// classes in s. It folds with the builtin min and max, which compile to
// branch-free code; see the file comment for why the midpoint matches
// the core.Fmin/Fmax fold. s must be non-empty.
func foldMid(vals []float64, s []int32) float64 {
	lo, hi := vals[s[0]], vals[s[0]]
	for _, d := range s[1:] {
		lo, hi = min(lo, vals[d]), max(hi, vals[d])
	}
	return (lo + hi) / 2
}

// SettleDense implements core.DenseSettler on two scalars. It panics
// unless n == 2, mirroring NewAgent.
func (TwoThirds) SettleDense(st *core.DenseState, g graph.Graph, settle int, tol float64, _ *core.SettleScratch) (lo, hi float64, round int, ok bool) {
	if st.N() != 2 {
		panic(fmt.Sprintf("algorithms: TwoThirds requires n = 2, got %d", st.N()))
	}
	y0, y1 := st.Y[0], st.Y[1]
	hears0, hears1 := g.InRow(0)[0]&2 != 0, g.InRow(1)[0]&1 != 0
	for r := 0; ; r++ {
		if lo, hi = core.Fmin(y0, y1), core.Fmax(y0, y1); hi-lo <= tol {
			return lo, hi, r, true
		}
		if r == settle {
			return 0, 0, r, false
		}
		n0, n1 := y0, y1
		if hears0 {
			n0 = y0/3 + 2*y1/3
		}
		if hears1 {
			n1 = y1/3 + 2*y0/3
		}
		y0, y1 = n0, n1
	}
}
