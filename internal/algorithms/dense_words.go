package algorithms

import (
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/graph"
)

// This file holds the multi-word (n > 64) variants of the dense fold
// kernels and steppers. Each is the word-parallel generalization of its
// single-word counterpart in dense.go / dense_batch.go: the same float
// operations on the same values in the same ascending-sender order, with
// the mask scan iterating the receiver's row words instead of one uint64.
// The single-word kernels keep their own code paths untouched — StepDense
// and StepDenseBatch dispatch once per call on the graph's word count —
// so n <= 64 performance and fingerprints are unchanged by construction.
//
// Fold memoization across receivers compares row contents (rowEq) instead
// of uint64 equality; everything else about the bit-identity contract
// (exact min/max selections, order-sensitive sums folded in index order)
// carries over verbatim.

// rowEq reports whether two equal-length mask rows hold the same bits.
func rowEq(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// foldMinMaxW is foldMinMax over a multi-word mask row: min and max of y
// over the row's set bits, visited in ascending index. The row must be
// non-empty (every row carries the self-loop).
func foldMinMaxW(y []float64, row []uint64) (lo, hi float64) {
	first := true
	for wi, m := range row {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			v := y[base+bits.TrailingZeros64(m)]
			if first {
				lo, hi, first = v, v, false
				continue
			}
			lo = core.Fmin(lo, v)
			hi = core.Fmax(hi, v)
		}
	}
	return lo, hi
}

// foldMinMaxDeltaW extends an already-computed fold by the values at the
// delta row's set bits; bit-identical to folding the union row directly
// because core.Fmin/Fmax are exact multiset selections (see foldMinMaxDelta).
func foldMinMaxDeltaW(y []float64, delta []uint64, lo0, hi0 float64) (lo, hi float64) {
	lo, hi = lo0, hi0
	for wi, m := range delta {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			v := y[base+bits.TrailingZeros64(m)]
			lo = core.Fmin(lo, v)
			hi = core.Fmax(hi, v)
		}
	}
	return lo, hi
}

// foldIntervalW is foldInterval over a multi-word mask row.
func foldIntervalW(loPlane, hiPlane []float64, row []uint64) (lo, hi float64) {
	first := true
	for wi, m := range row {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			if first {
				lo, hi, first = loPlane[i], hiPlane[i], false
				continue
			}
			lo = core.Fmin(lo, loPlane[i])
			hi = core.Fmax(hi, hiPlane[i])
		}
	}
	return lo, hi
}

// foldIntervalDeltaW extends an interval fold by the plane values at the
// delta row's set bits.
func foldIntervalDeltaW(loPlane, hiPlane []float64, delta []uint64, lo0, hi0 float64) (lo, hi float64) {
	lo, hi = lo0, hi0
	for wi, m := range delta {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			lo = core.Fmin(lo, loPlane[i])
			hi = core.Fmax(hi, hiPlane[i])
		}
	}
	return lo, hi
}

// foldMeanW is foldMean over a multi-word mask row: the sum starts at 0.0
// and adds in ascending index, exactly the Agent path's Deliver order.
func foldMeanW(y []float64, row []uint64) float64 {
	sum, count := 0.0, 0
	for wi, m := range row {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			sum += y[base+bits.TrailingZeros64(m)]
			count++
		}
	}
	return sum / float64(count)
}

// foldFlowSumW is foldFlowSum over a multi-word mask row.
func foldFlowSumW(y []float64, degs []int, row []uint64) float64 {
	sum := 0.0
	for wi, m := range row {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			sum += y[i] / float64(degs[i])
		}
	}
	return sum
}

// scanInformedW reports whether the mask row contains an informed sender
// and the root value carried by the first (lowest-index) one.
func scanInformedW(inf0, rv0 []float64, row []uint64) (heard bool, value float64) {
	for wi, m := range row {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			if i := base + bits.TrailingZeros64(m); inf0[i] == 1 {
				return true, rv0[i]
			}
		}
	}
	return false, 0
}

// ---- multi-word StepDense bodies ----

func midpointStepDenseW(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	var last []uint64
	var mid float64
	for j := 0; j < src.N(); j++ {
		if row := g.InRow(j); last == nil || !rowEq(row, last) {
			lo, hi := foldMinMaxW(y, row)
			mid = (lo + hi) / 2
			last = row
		}
		out[j] = mid
	}
}

func meanStepDenseW(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	var last []uint64
	var mean float64
	for j := 0; j < src.N(); j++ {
		if row := g.InRow(j); last == nil || !rowEq(row, last) {
			mean = foldMeanW(y, row)
			last = row
		}
		out[j] = mean
	}
}

func (s SelfWeighted) stepDenseW(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	for j := 0; j < src.N(); j++ {
		sum, count := 0.0, 0
		for wi, m := range g.InRow(j) {
			base := wi * 64
			for ; m != 0; m &= m - 1 {
				i := base + bits.TrailingZeros64(m)
				if i == j {
					continue
				}
				sum += y[i]
				count++
			}
		}
		if count == 0 {
			out[j] = y[j]
			continue
		}
		out[j] = s.Alpha*y[j] + (1-s.Alpha)*sum/float64(count)
	}
}

func amortizedStepDenseW(dst, src *core.DenseState, g graph.Graph) {
	n := src.N()
	phase := amortizedPhase(n)
	round := dst.Round()
	y := src.Y
	lo0, hi0 := src.Plane(amortizedPlaneLo), src.Plane(amortizedPlaneHi)
	oy := dst.Y
	olo, ohi := dst.Plane(amortizedPlaneLo), dst.Plane(amortizedPlaneHi)
	phaseEnd := round%phase == 0
	var last []uint64
	var lo, hi float64
	for j := 0; j < n; j++ {
		if row := g.InRow(j); last == nil || !rowEq(row, last) {
			last = row
			lo, hi = foldIntervalW(lo0, hi0, row)
		}
		if phaseEnd {
			yj := (lo + hi) / 2
			oy[j], olo[j], ohi[j] = yj, yj, yj
		} else {
			oy[j], olo[j], ohi[j] = y[j], lo, hi
		}
	}
}

func (a QuantizedMidpoint) stepDenseW(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	var last []uint64
	var snapped float64
	for j := 0; j < src.N(); j++ {
		if row := g.InRow(j); last == nil || !rowEq(row, last) {
			last = row
			lo, hi := foldMinMaxW(y, row)
			snapped = math.Floor((lo+hi)/(2*a.Q)) * a.Q
		}
		out[j] = snapped
	}
}

func floodRootStepDenseW(dst, src *core.DenseState, g graph.Graph) {
	n := src.N()
	y := src.Y
	inf0, rv0 := src.Plane(floodPlaneInformed), src.Plane(floodPlaneRoot)
	oy := dst.Y
	oinf, orv := dst.Plane(floodPlaneInformed), dst.Plane(floodPlaneRoot)
	var last []uint64
	heard := false
	var heardValue float64
	for j := 0; j < n; j++ {
		oy[j], oinf[j], orv[j] = y[j], inf0[j], rv0[j]
		if inf0[j] == 1 {
			continue
		}
		if row := g.InRow(j); last == nil || !rowEq(row, last) {
			last = row
			heard, heardValue = scanInformedW(inf0, rv0, row)
		}
		if heard {
			oy[j], oinf[j], orv[j] = heardValue, 1, heardValue
		}
	}
}

func (f FlowSum) stepDenseW(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	var last []uint64
	var sum float64
	for j := 0; j < src.N(); j++ {
		if row := g.InRow(j); last == nil || !rowEq(row, last) {
			last = row
			sum = foldFlowSumW(y, f.OutDegrees, row)
		}
		out[j] = sum
	}
}

// ---- multi-word StepDenseBatch bodies ----

// segRecvBounds intersects a segment's receiver range with a receiver
// shard's bounds; an empty intersection means the shard skips the segment.
func segRecvBounds(seg *core.MaskSeg, recvLo, recvHi int) (lo, hi int) {
	lo, hi = seg.Start, seg.End
	if lo < recvLo {
		lo = recvLo
	}
	if hi > recvHi {
		hi = recvHi
	}
	return lo, hi
}

func midpointStepDenseBatchW(dst, src *core.BatchState, plan *core.StepPlan) {
	los, his := plan.F0, plan.F1
	segLo, segHi := plan.SegRange()
	recvLo, recvHi := plan.RecvRange(src.N())
	recvShard := plan.RecvHi != 0
	for _, r := range plan.Runs {
		y, out := src.RunY(r), dst.RunY(r)
		var hull hullAcc
		for si := segLo; si < segHi; si++ {
			seg := &plan.Segs[si]
			jLo, jHi := seg.Start, seg.End
			if recvShard {
				if jLo, jHi = segRecvBounds(seg, recvLo, recvHi); jLo >= jHi {
					continue
				}
			}
			var lo, hi float64
			switch {
			case recvShard:
				// Receiver shards refold every touched segment from its own
				// mask: cross-segment reuse could read a fold slot owned by a
				// segment this shard never visited. Bit-transparent — exact
				// multiset selection, same value multiset.
				lo, hi = foldMinMaxW(y, plan.MaskRow(seg))
			case seg.Fold != si && seg.Fold >= segLo:
				lo, hi = los[seg.Fold], his[seg.Fold]
			case seg.Fold == si && seg.Base >= segLo:
				lo, hi = foldMinMaxDeltaW(y, plan.DeltaRow(seg), los[seg.Base], his[seg.Base])
				los[si], his[si] = lo, hi
			default:
				lo, hi = foldMinMaxW(y, plan.MaskRow(seg))
				los[si], his[si] = lo, hi
			}
			mid := (lo + hi) / 2
			if plan.WantHull {
				hull.add(mid)
			}
			for j := jLo; j < jHi; j++ {
				out[j] = mid
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

func meanStepDenseBatchW(dst, src *core.BatchState, plan *core.StepPlan) {
	means := plan.F0
	for _, r := range plan.Runs {
		y, out := src.RunY(r), dst.RunY(r)
		var hull hullAcc
		for si := range plan.Segs {
			seg := &plan.Segs[si]
			var mean float64
			if seg.Fold == si {
				mean = foldMeanW(y, plan.MaskRow(seg))
				means[si] = mean
			} else {
				mean = means[seg.Fold]
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

func (a QuantizedMidpoint) stepDenseBatchW(dst, src *core.BatchState, plan *core.StepPlan) {
	los, his := plan.F0, plan.F1
	segLo, segHi := plan.SegRange()
	recvLo, recvHi := plan.RecvRange(src.N())
	recvShard := plan.RecvHi != 0
	for _, r := range plan.Runs {
		y, out := src.RunY(r), dst.RunY(r)
		var hull hullAcc
		for si := segLo; si < segHi; si++ {
			seg := &plan.Segs[si]
			jLo, jHi := seg.Start, seg.End
			if recvShard {
				if jLo, jHi = segRecvBounds(seg, recvLo, recvHi); jLo >= jHi {
					continue
				}
			}
			var lo, hi float64
			switch {
			case recvShard:
				lo, hi = foldMinMaxW(y, plan.MaskRow(seg))
			case seg.Fold != si && seg.Fold >= segLo:
				lo, hi = los[seg.Fold], his[seg.Fold]
			case seg.Fold == si && seg.Base >= segLo:
				lo, hi = foldMinMaxDeltaW(y, plan.DeltaRow(seg), los[seg.Base], his[seg.Base])
				los[si], his[si] = lo, hi
			default:
				lo, hi = foldMinMaxW(y, plan.MaskRow(seg))
				los[si], his[si] = lo, hi
			}
			snapped := math.Floor((lo+hi)/(2*a.Q)) * a.Q
			if plan.WantHull {
				hull.add(snapped)
			}
			for j := jLo; j < jHi; j++ {
				out[j] = snapped
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

func amortizedStepDenseBatchW(dst, src *core.BatchState, plan *core.StepPlan) {
	n := src.N()
	phase := amortizedPhase(n)
	phaseEnd := dst.Round()%phase == 0
	los, his := plan.F0, plan.F1
	segLo, segHi := plan.SegRange()
	recvLo, recvHi := plan.RecvRange(n)
	recvShard := plan.RecvHi != 0
	for _, r := range plan.Runs {
		y := src.RunY(r)
		lo0, hi0 := src.RunPlane(r, amortizedPlaneLo), src.RunPlane(r, amortizedPlaneHi)
		oy := dst.RunY(r)
		olo, ohi := dst.RunPlane(r, amortizedPlaneLo), dst.RunPlane(r, amortizedPlaneHi)
		var hull hullAcc
		for si := segLo; si < segHi; si++ {
			seg := &plan.Segs[si]
			jLo, jHi := seg.Start, seg.End
			if recvShard {
				if jLo, jHi = segRecvBounds(seg, recvLo, recvHi); jLo >= jHi {
					continue
				}
			}
			var lo, hi float64
			switch {
			case recvShard:
				lo, hi = foldIntervalW(lo0, hi0, plan.MaskRow(seg))
			case seg.Fold != si && seg.Fold >= segLo:
				lo, hi = los[seg.Fold], his[seg.Fold]
			case seg.Fold == si && seg.Base >= segLo:
				lo, hi = foldIntervalDeltaW(lo0, hi0, plan.DeltaRow(seg), los[seg.Base], his[seg.Base])
				los[si], his[si] = lo, hi
			default:
				lo, hi = foldIntervalW(lo0, hi0, plan.MaskRow(seg))
				los[si], his[si] = lo, hi
			}
			if phaseEnd {
				mid := (lo + hi) / 2
				if plan.WantHull {
					hull.add(mid)
				}
				for j := jLo; j < jHi; j++ {
					oy[j], olo[j], ohi[j] = mid, mid, mid
				}
			} else {
				for j := jLo; j < jHi; j++ {
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

func (f FlowSum) stepDenseBatchW(dst, src *core.BatchState, plan *core.StepPlan) {
	sums := plan.F0
	for _, r := range plan.Runs {
		y, out := src.RunY(r), dst.RunY(r)
		var hull hullAcc
		for si := range plan.Segs {
			seg := &plan.Segs[si]
			var sum float64
			if seg.Fold == si {
				sum = foldFlowSumW(y, f.OutDegrees, plan.MaskRow(seg))
				sums[si] = sum
			} else {
				sum = sums[seg.Fold]
			}
			if plan.WantHull {
				hull.add(sum)
			}
			for j := seg.Start; j < seg.End; j++ {
				out[j] = sum
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}

func floodRootStepDenseBatchW(dst, src *core.BatchState, plan *core.StepPlan) {
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
							heard, v := scanInformedW(inf0, rv0, plan.MaskRow(seg))
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
				heards[si] = -1
			}
		}
		if plan.WantHull {
			hull.commit(plan, r)
		}
	}
	plan.HullDone = plan.WantHull
}
