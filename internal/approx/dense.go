package approx

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
)

// Dense-path support for the deciding wrapper. The wrapper adds one
// auxiliary plane — the write-once decision variable, NaN (⊥) until the
// decision round — after the inner algorithm's planes; the inner stepper
// runs on the same state and never touches the extra plane.

// Dense implements core.DenseProvider: the deciding wrapper is dense-
// capable exactly when its inner algorithm is. When the inner algorithm
// also steps batches (core.BatchStepper), so does the wrapper.
func (d DecidingAlgorithm) Dense() (core.DenseAlgorithm, bool) {
	inner, ok := core.AsDense(d.Inner)
	if !ok {
		return nil, false
	}
	dd := denseDeciding{DecidingAlgorithm: d, inner: inner}
	if bs, ok := inner.(core.BatchStepper); ok {
		return denseDecidingBatch{denseDeciding: dd, innerBatch: bs}, true
	}
	return dd, true
}

// denseDeciding is the dense view of a DecidingAlgorithm.
type denseDeciding struct {
	DecidingAlgorithm
	inner core.DenseAlgorithm
}

// decisionPlane returns the wrapper's decision plane (the last one).
func decisionPlane(st *core.DenseState) []float64 { return st.Plane(st.Planes() - 1) }

// DensePlanes implements core.DenseAlgorithm.
func (d denseDeciding) DensePlanes() int { return d.inner.DensePlanes() + 1 }

// InitDense implements core.DenseAlgorithm.
func (d denseDeciding) InitDense(st *core.DenseState) {
	if d.DecisionRound < 0 {
		panic(fmt.Sprintf("approx: negative decision round %d", d.DecisionRound))
	}
	d.inner.InitDense(st)
	dec := decisionPlane(st)
	if d.DecisionRound == 0 {
		// Decide immediately on the input, as NewAgent does.
		d.inner.OutputsDense(st, dec)
		return
	}
	for i := range dec {
		dec[i] = Undecided
	}
}

// StepDense implements core.DenseAlgorithm. After deciding, the inner
// algorithm keeps participating, exactly like the agent wrapper.
func (d denseDeciding) StepDense(dst, src *core.DenseState, g graph.Graph) {
	d.inner.StepDense(dst, src, g)
	srcDec, dec := decisionPlane(src), decisionPlane(dst)
	if dst.Round() != d.DecisionRound {
		copy(dec, srcDec)
		return
	}
	d.inner.OutputsDense(dst, dec)
	// Write-once: an already-set decision is never overwritten.
	for i, v := range srcDec {
		if !math.IsNaN(v) {
			dec[i] = v
		}
	}
}

// denseDecidingBatch extends the dense view with batch stepping for
// batch-capable inner algorithms: the inner planes keep their indices in
// the batch layout (the decision plane is appended last per run), so the
// inner batched stepper runs unchanged and the wrapper replays the
// decision-plane logic of StepDense per run.
type denseDecidingBatch struct {
	denseDeciding
	innerBatch core.BatchStepper
}

// StepDenseBatch implements core.BatchStepper.
func (d denseDecidingBatch) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	// The wrapper's observable outputs override the inner values with
	// taken decisions, so the inner stepper's hull would be discarded
	// anyway — suppress it and leave the runner to scan.
	wantHull := plan.WantHull
	plan.WantHull = false
	d.innerBatch.StepDenseBatch(dst, src, plan)
	plan.WantHull, plan.HullDone = wantHull, false
	last := dst.Planes() - 1
	var view core.DenseState
	for _, r := range plan.Runs {
		srcDec, dec := src.RunPlane(r, last), dst.RunPlane(r, last)
		if dst.Round() != d.DecisionRound {
			copy(dec, srcDec)
			continue
		}
		dst.View(r, &view)
		d.inner.OutputsDense(&view, dec)
		// Write-once: an already-set decision is never overwritten.
		for i, v := range srcDec {
			if !math.IsNaN(v) {
				dec[i] = v
			}
		}
	}
}

// OutputsDense implements core.DenseAlgorithm: the decision once taken,
// the running inner estimate before.
func (d denseDeciding) OutputsDense(st *core.DenseState, out []float64) {
	d.inner.OutputsDense(st, out)
	for i, v := range decisionPlane(st) {
		if !math.IsNaN(v) {
			out[i] = v
		}
	}
}

// AppendDenseFingerprint implements core.DenseFingerprinter, matching the
// decidingAgent encoding byte for byte.
func (d denseDeciding) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	df, ok := d.inner.(core.DenseFingerprinter)
	if !ok {
		return dst, false
	}
	dst = append(dst, decidingAgentTag)
	dst = core.AppendInt(dst, d.DecisionRound)
	dst = core.AppendFloat(dst, decisionPlane(st)[i])
	return df.AppendDenseFingerprint(dst, st, i)
}

// WriteDense implements core.DenseStateWriter.
func (a *decidingAgent) WriteDense(st *core.DenseState, i int) bool {
	w, ok := a.inner.(core.DenseStateWriter)
	if !ok || !w.WriteDense(st, i) {
		return false
	}
	decisionPlane(st)[i] = a.decision
	return true
}

// ReadDense implements core.DenseStateReader.
func (a *decidingAgent) ReadDense(st *core.DenseState, i int) bool {
	r, ok := a.inner.(core.DenseStateReader)
	if !ok || !r.ReadDense(st, i) {
		return false
	}
	a.decision = decisionPlane(st)[i]
	return true
}
