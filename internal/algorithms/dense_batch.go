package algorithms

import (
	"math"
	"math/bits"

	"repro/internal/core"
)

// This file implements the batched execution plane (core.BatchStepper)
// for the algorithms whose per-receiver update is a pure function of the
// in-mask: one call steps every run of plan.Runs — the whole batch on
// shared-graph rounds, one graph-cluster of it on clustered per-run
// rounds — under one shared graph, with the receiver segmentation
// (plan.Segs) computed once (and cached by the runner across rounds)
// instead of once per run per receiver.
//
// Bit-identity contract: within each run every stored float carries the
// same bits StepDense would store. Two fold-sharing moves go beyond the
// single-run last-row memo: fold reuse across non-adjacent segments
// with equal masks (seg.Fold), and subset-delta folds (seg.Base) that
// extend an earlier fold by the mask difference. Both are transparent
// for min/max folds because core.Fmin/Fmax are exact multiset selections —
// the result does not depend on association order, NaN and signed-zero
// cases included. The order-sensitive fold (Mean's sum) shares only a
// prefix with its base: the base row's partial sum before the delta's
// first bit, which is the segment's own partial sum there, and it adds
// the rest of its row in StepDense's index order. Segment rows come from
// the plan (StepPlan.MaskRow, StepPlan.DeltaRow), one body for every
// width. The randomized differential tests in dense_batch_test.go pin
// batch-vs-single equivalence for every dense algorithm, batched stepper
// or not, on both sides of the word boundary.
//
// SelfWeighted and TwoThirds keep the generic per-view path: their
// updates depend on the receiver index, so there is nothing
// run-independent to share.

// hullAcc accumulates a running output hull. The accumulated interval
// is bit-identical to core.Hull over the full output vector as long as
// every distinct output value is fed at least once in output order:
// min/max are exact multiset selections, so repeated values (a segment's
// shared fold result) need only one visit. core.Fmin/Fmax are pinned
// bit-identical to the math.Min/Max that core.Hull uses.
type hullAcc struct {
	lo, hi float64
	any    bool
}

func (h *hullAcc) add(v float64) {
	if !h.any {
		h.lo, h.hi, h.any = v, v, true
		return
	}
	h.lo = core.Fmin(h.lo, v)
	h.hi = core.Fmax(h.hi, v)
}

func (h *hullAcc) commit(plan *core.StepPlan, r int) {
	plan.HullLo[r], plan.HullHi[r] = h.lo, h.hi
}

// StepDenseBatch implements core.BatchStepper. Distinct folds carrying a
// subset base (MaskSeg.Base) extend the base fold by the delta bits — an
// exact multiset selection, so the midpoint bits match the full refold.
func (Midpoint) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	los, his := plan.F0, plan.F1
	for _, r := range plan.Runs {
		y, out := src.RunY(r), dst.RunY(r)
		var hull hullAcc
		for si := range plan.Segs {
			seg := &plan.Segs[si]
			var lo, hi float64
			switch {
			case seg.Fold != si:
				lo, hi = los[seg.Fold], his[seg.Fold]
			case seg.Base >= 0:
				lo, hi = foldMinMaxDelta(y, plan.DeltaRow(seg), los[seg.Base], his[seg.Base])
				los[si], his[si] = lo, hi
			default:
				lo, hi = foldMinMax(y, plan.MaskRow(seg))
				los[si], his[si] = lo, hi
			}
			mid := (lo + hi) / 2
			if plan.WantHull {
				hull.add(mid)
			}
			for j := seg.Start; j < seg.End; j++ {
				out[j] = mid
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

// meanSpan continues a Mean fold over the row's set bits in [from, to),
// in ascending index, from the sum and count of the bits below from —
// foldMean's additions, resumed at from. from < to <= 64*len(row).
func meanSpan(y []float64, row []uint64, from, to int, sum float64, count int) (float64, int) {
	wi, last := from>>6, (to-1)>>6
	m := row[wi] &^ (1<<uint(from&63) - 1)
	for {
		if wi == last && to&63 != 0 {
			m &= 1<<uint(to&63) - 1
		}
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			sum += y[base+bits.TrailingZeros64(m)]
			count++
		}
		if wi == last {
			return sum, count
		}
		wi++
		m = row[wi]
	}
}

// StepDenseBatch implements core.BatchStepper. A distinct fold with a
// subset base (MaskSeg.Base) starts from the base row's partial sum
// before the delta's first bit d: below d the two rows hold the same
// bits, so that partial sum is the segment's own, and the fold adds its
// row's bits from d on in index order — foldMean's additions in
// foldMean's order, bit-identical. A cursor walks the base row up to d
// and keeps its place, so a run of segments on one base at increasing d
// (the down agents of a churn round) walks the base once.
func (Mean) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	means := plan.F0
	n := src.N()
	for _, r := range plan.Runs {
		y, out := src.RunY(r), dst.RunY(r)
		var hull hullAcc
		// The cursor: the sum and count of base row cb's bits below cpos.
		cb, cpos, csum, ccount := -1, 0, 0.0, 0
		for si := range plan.Segs {
			seg := &plan.Segs[si]
			var mean float64
			switch {
			case seg.Fold != si:
				mean = means[seg.Fold]
			case seg.Base >= 0:
				d, _, _ := firstBit(plan.DeltaRow(seg))
				if seg.Base != cb || d < cpos {
					cb, cpos, csum, ccount = seg.Base, 0, 0, 0
				}
				if cpos < d {
					csum, ccount = meanSpan(y, plan.MaskRow(&plan.Segs[cb]), cpos, d, csum, ccount)
					cpos = d
				}
				sum, count := meanSpan(y, plan.MaskRow(seg), d, n, csum, ccount)
				mean = sum / float64(count)
				means[si] = mean
			default:
				mean = foldMean(y, plan.MaskRow(seg))
				means[si] = mean
			}
			if plan.WantHull {
				hull.add(mean)
			}
			for j := seg.Start; j < seg.End; j++ {
				out[j] = mean
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

// StepDenseBatch implements core.BatchStepper, folding like Midpoint.
func (a QuantizedMidpoint) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	los, his := plan.F0, plan.F1
	for _, r := range plan.Runs {
		y, out := src.RunY(r), dst.RunY(r)
		var hull hullAcc
		for si := range plan.Segs {
			seg := &plan.Segs[si]
			var lo, hi float64
			switch {
			case seg.Fold != si:
				lo, hi = los[seg.Fold], his[seg.Fold]
			case seg.Base >= 0:
				lo, hi = foldMinMaxDelta(y, plan.DeltaRow(seg), los[seg.Base], his[seg.Base])
				los[si], his[si] = lo, hi
			default:
				lo, hi = foldMinMax(y, plan.MaskRow(seg))
				los[si], his[si] = lo, hi
			}
			snapped := math.Floor((lo+hi)/(2*a.Q)) * a.Q
			if plan.WantHull {
				hull.add(snapped)
			}
			for j := seg.Start; j < seg.End; j++ {
				out[j] = snapped
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

// StepDenseBatch implements core.BatchStepper, folding the interval
// planes like Midpoint folds values.
func (AmortizedMidpoint) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	n := src.N()
	phase := amortizedPhase(n)
	phaseEnd := dst.Round()%phase == 0
	los, his := plan.F0, plan.F1
	for _, r := range plan.Runs {
		y := src.RunY(r)
		lo0, hi0 := src.RunPlane(r, amortizedPlaneLo), src.RunPlane(r, amortizedPlaneHi)
		oy := dst.RunY(r)
		olo, ohi := dst.RunPlane(r, amortizedPlaneLo), dst.RunPlane(r, amortizedPlaneHi)
		var hull hullAcc
		for si := range plan.Segs {
			seg := &plan.Segs[si]
			var lo, hi float64
			switch {
			case seg.Fold != si:
				lo, hi = los[seg.Fold], his[seg.Fold]
			case seg.Base >= 0:
				lo, hi = foldIntervalDelta(lo0, hi0, plan.DeltaRow(seg), los[seg.Base], his[seg.Base])
				los[si], his[si] = lo, hi
			default:
				lo, hi = foldInterval(lo0, hi0, plan.MaskRow(seg))
				los[si], his[si] = lo, hi
			}
			if phaseEnd {
				mid := (lo + hi) / 2
				if plan.WantHull {
					hull.add(mid)
				}
				for j := seg.Start; j < seg.End; j++ {
					oy[j], olo[j], ohi[j] = mid, mid, mid
				}
			} else {
				for j := seg.Start; j < seg.End; j++ {
					oy[j], olo[j], ohi[j] = y[j], lo, hi
					if plan.WantHull {
						hull.add(y[j])
					}
				}
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

// StepDenseBatch implements core.BatchStepper. Whether a row contains
// an informed sender depends on the run's informed plane, so the scan is
// per run per segment — but the segmentation itself, the dominant
// per-receiver bookkeeping on mostly-uninformed rounds, is shared.
func (FloodRoot) StepDenseBatch(dst, src *core.BatchState, plan *core.StepPlan) {
	heards, values := plan.F0, plan.F1
	for _, r := range plan.Runs {
		y := src.RunY(r)
		inf0, rv0 := src.RunPlane(r, floodPlaneInformed), src.RunPlane(r, floodPlaneRoot)
		oy := dst.RunY(r)
		oinf, orv := dst.RunPlane(r, floodPlaneInformed), dst.RunPlane(r, floodPlaneRoot)
		var hull hullAcc
		for si := range plan.Segs {
			seg := &plan.Segs[si]
			scanned := false
			for j := seg.Start; j < seg.End; j++ {
				oy[j], oinf[j], orv[j] = y[j], inf0[j], rv0[j]
				if inf0[j] != 1 {
					if !scanned {
						scanned = true
						if seg.Fold != si && heards[seg.Fold] >= 0 {
							heards[si], values[si] = heards[seg.Fold], values[seg.Fold]
						} else {
							heard, v := scanInformed(inf0, rv0, plan.MaskRow(seg))
							if heard {
								heards[si], values[si] = 1, v
							} else {
								heards[si], values[si] = 0, 0
							}
						}
					}
					if heards[si] == 1 {
						oy[j], oinf[j], orv[j] = values[si], 1, values[si]
					}
				}
				if plan.WantHull {
					hull.add(oy[j])
				}
			}
			if !scanned {
				// No uninformed receiver consulted this segment; mark its
				// fold slot unset so later equal-mask segments rescan.
				heards[si] = -1
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}
