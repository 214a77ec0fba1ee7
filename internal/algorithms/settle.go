package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// This file implements the TwoThirds settle kernel (core.DenseSettler):
// the whole constant-graph continuation "repeat g until the output hull
// is at most tol wide, for at most settle rounds" run on two scalars, in
// place of core.Settle's generic DenseStep + Hull loop. It steps them
// with the StepDense expressions verbatim, and its hull is the
// two-element Hull, so every round's convergence test and the hull of
// the converging round match the generic loop's bit for bit.
// TestSettleKernelsMatchGenericLoop and FuzzSettleKernels pin it.

// SettleDense implements core.DenseSettler on two scalars. It panics
// unless n == 2, mirroring NewAgent.
func (TwoThirds) SettleDense(st *core.DenseState, g graph.Graph, settle int, tol float64) (lo, hi float64, round int, ok bool) {
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
