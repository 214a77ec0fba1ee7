package algorithms

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/graph"
)

// This file implements the dense struct-of-arrays path
// (core.DenseAlgorithm) for every algorithm in the package, plus the
// agent<->dense state bridges (core.DenseStateWriter/Reader) and the dense
// fingerprints that keep the valency engine's transposition tables shared
// between the dense and Agent paths.
//
// Bit-identity contract: each stepper performs exactly the float
// operations of the corresponding Agent's Deliver, visiting senders in
// ascending index — the order Step builds the inbox in. min/max folds may
// start from a different element of the same multiset (math.Min/Max are
// exact selections, so the result is order-independent); sums and
// averaged updates replicate the Deliver expressions verbatim. The
// differential tests in dense_test.go pin the equivalence on randomized
// graph sequences, and TestDenseFingerprintParity pins the fingerprint
// encodings.

// Plane indices of the algorithms with auxiliary state.
const (
	amortizedPlaneLo = 0
	amortizedPlaneHi = 1

	floodPlaneInformed = 0
	floodPlaneRoot     = 1
)

// ---- Midpoint ----

// DensePlanes implements core.DenseAlgorithm.
func (Midpoint) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm.
func (Midpoint) InitDense(*core.DenseState) {}

// foldMinMax returns the min and max of y over the mask's set bits. The
// scan is range-based (no per-element bounds checks) in ascending index —
// the Agent path's inbox order; the fold result is a pure function of the
// value multiset anyway (math.Min/Max are exact selections with
// multiset-determined NaN and -0 handling), which is what licenses the
// per-mask memoization in the steppers: receivers sharing an in-mask
// share the fold. m must be non-empty.
func foldMinMax(y []float64, m uint64) (lo, hi float64) {
	first := bits.TrailingZeros64(m)
	lo = y[first]
	hi = lo
	bit := uint64(1) << uint(first)
	for _, v := range y[first+1:] {
		bit <<= 1
		if m&bit == 0 {
			continue
		}
		lo = core.Fmin(lo, v)
		hi = core.Fmax(hi, v)
	}
	return lo, hi
}

// foldMinMaxDelta extends an already-computed fold (lo0, hi0) by the
// values at delta's set bits — the subset-delta path of MaskSeg.Base.
// Bit-identical to folding the union mask directly in index order:
// core.Fmin/Fmax are exact multiset selections (NaN and signed-zero handling
// included), so association order is free. delta must be non-empty.
func foldMinMaxDelta(y []float64, delta uint64, lo0, hi0 float64) (lo, hi float64) {
	lo, hi = lo0, hi0
	for m := delta; m != 0; m &= m - 1 {
		v := y[bits.TrailingZeros64(m)]
		lo = core.Fmin(lo, v)
		hi = core.Fmax(hi, v)
	}
	return lo, hi
}

// StepDense implements core.DenseAlgorithm. Receivers with equal in-masks
// (ubiquitous in the paper's families: complete, deaf, Psi, silence
// blocks) share one fold via the last-mask memo.
func (Midpoint) StepDense(dst, src *core.DenseState, g graph.Graph) {
	if g.Words() > 1 {
		midpointStepDenseW(dst, src, g)
		return
	}
	y, out := src.Y, dst.Y
	var lastMask uint64 // 0 is impossible: every mask carries the self-loop
	var mid float64
	for j := 0; j < src.N(); j++ {
		if m := g.InMask(j); m != lastMask {
			lo, hi := foldMinMax(y, m)
			mid = (lo + hi) / 2
			lastMask = m
		}
		out[j] = mid
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (Midpoint) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (Midpoint) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagMidpoint)
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *midpointAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *midpointAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}

// ---- TwoThirds ----

// DensePlanes implements core.DenseAlgorithm.
func (TwoThirds) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm. It panics unless n == 2,
// mirroring NewAgent.
func (TwoThirds) InitDense(st *core.DenseState) {
	if st.N() != 2 {
		panic(fmt.Sprintf("algorithms: TwoThirds requires n = 2, got %d", st.N()))
	}
}

// StepDense implements core.DenseAlgorithm.
func (TwoThirds) StepDense(dst, src *core.DenseState, g graph.Graph) {
	for j := 0; j < 2; j++ {
		o := 1 - j
		if g.InMask(j)&(1<<uint(o)) != 0 {
			dst.Y[j] = src.Y[j]/3 + 2*src.Y[o]/3
		} else {
			dst.Y[j] = src.Y[j]
		}
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (TwoThirds) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (TwoThirds) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagTwoThirds)
	dst = core.AppendInt(dst, i)
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *twoThirdsAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *twoThirdsAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}

// ---- Mean ----

// DensePlanes implements core.DenseAlgorithm.
func (Mean) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm.
func (Mean) InitDense(*core.DenseState) {}

// foldMean returns the mean of y over the mask's set bits. The fold
// starts at 0.0 like the Agent path's Deliver: the leading zero addition
// matters for -0 inputs. m must be non-empty.
func foldMean(y []float64, m uint64) float64 {
	count := bits.OnesCount64(m)
	sum := 0.0
	first := bits.TrailingZeros64(m)
	bit := uint64(1) << uint(first)
	for _, v := range y[first:] {
		if m&bit != 0 {
			sum += v
		}
		bit <<= 1
	}
	return sum / float64(count)
}

// StepDense implements core.DenseAlgorithm. The received mean is a pure
// function of the in-mask, so receivers sharing a mask share the fold.
func (Mean) StepDense(dst, src *core.DenseState, g graph.Graph) {
	if g.Words() > 1 {
		meanStepDenseW(dst, src, g)
		return
	}
	y, out := src.Y, dst.Y
	var lastMask uint64
	var mean float64
	for j := 0; j < src.N(); j++ {
		if m := g.InMask(j); m != lastMask {
			lastMask = m
			mean = foldMean(y, m)
		}
		out[j] = mean
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (Mean) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (Mean) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagMean)
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *meanAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *meanAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}

// ---- SelfWeighted ----

// DensePlanes implements core.DenseAlgorithm.
func (SelfWeighted) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm. It panics for Alpha outside
// [0, 1], mirroring NewAgent.
func (s SelfWeighted) InitDense(*core.DenseState) {
	if s.Alpha < 0 || s.Alpha > 1 {
		panic(fmt.Sprintf("algorithms: SelfWeighted alpha %v outside [0,1]", s.Alpha))
	}
}

// StepDense implements core.DenseAlgorithm.
func (s SelfWeighted) StepDense(dst, src *core.DenseState, g graph.Graph) {
	if g.Words() > 1 {
		s.stepDenseW(dst, src, g)
		return
	}
	y, out := src.Y, dst.Y
	for j := 0; j < src.N(); j++ {
		sum, count := 0.0, 0
		for m := g.InMask(j); m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if i == j {
				continue
			}
			sum += y[i]
			count++
		}
		if count == 0 {
			out[j] = y[j]
			continue
		}
		out[j] = s.Alpha*y[j] + (1-s.Alpha)*sum/float64(count)
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (SelfWeighted) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (s SelfWeighted) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagSelfWeighted)
	dst = core.AppendInt(dst, i)
	dst = core.AppendFloat(dst, s.Alpha)
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *selfWeightedAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *selfWeightedAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}

// ---- AmortizedMidpoint ----

// amortizedPhase returns the phase length for n agents, as NewAgent
// computes it.
func amortizedPhase(n int) int {
	phase := n - 1
	if phase < 1 {
		phase = 1
	}
	return phase
}

// DensePlanes implements core.DenseAlgorithm: the running lo/hi interval.
func (AmortizedMidpoint) DensePlanes() int { return 2 }

// InitDense implements core.DenseAlgorithm.
func (AmortizedMidpoint) InitDense(st *core.DenseState) {
	copy(st.Plane(amortizedPlaneLo), st.Y)
	copy(st.Plane(amortizedPlaneHi), st.Y)
}

// StepDense implements core.DenseAlgorithm. The agent's fold starts at
// its own running interval, but the self-loop puts that interval in the
// received multiset anyway, so the result is a pure function of the
// in-mask and receivers sharing a mask share the fold (min/max are exact
// selections — see foldMinMax).
func (AmortizedMidpoint) StepDense(dst, src *core.DenseState, g graph.Graph) {
	if g.Words() > 1 {
		amortizedStepDenseW(dst, src, g)
		return
	}
	n := src.N()
	phase := amortizedPhase(n)
	round := dst.Round()
	y := src.Y
	lo0, hi0 := src.Plane(amortizedPlaneLo), src.Plane(amortizedPlaneHi)
	oy := dst.Y
	olo, ohi := dst.Plane(amortizedPlaneLo), dst.Plane(amortizedPlaneHi)
	phaseEnd := round%phase == 0
	var lastMask uint64
	var lo, hi float64
	for j := 0; j < n; j++ {
		if m := g.InMask(j); m != lastMask {
			lastMask = m
			lo, hi = foldInterval(lo0, hi0, m)
		}
		if phaseEnd {
			yj := (lo + hi) / 2
			oy[j], olo[j], ohi[j] = yj, yj, yj
		} else {
			oy[j], olo[j], ohi[j] = y[j], lo, hi
		}
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (AmortizedMidpoint) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (AmortizedMidpoint) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagAmortized)
	dst = core.AppendInt(dst, amortizedPhase(st.N()))
	dst = core.AppendFloat(dst, st.Y[i])
	dst = core.AppendFloat(dst, st.Plane(amortizedPlaneLo)[i])
	return core.AppendFloat(dst, st.Plane(amortizedPlaneHi)[i]), true
}

func (a *amortizedAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	st.Plane(amortizedPlaneLo)[i] = a.lo
	st.Plane(amortizedPlaneHi)[i] = a.hi
	return true
}

func (a *amortizedAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	a.lo = st.Plane(amortizedPlaneLo)[i]
	a.hi = st.Plane(amortizedPlaneHi)[i]
	return true
}

// foldInterval folds min over loPlane and max over hiPlane across the
// mask's set bits, in ascending index. m must be non-empty.
func foldInterval(loPlane, hiPlane []float64, m uint64) (lo, hi float64) {
	first := bits.TrailingZeros64(m)
	lo, hi = loPlane[first], hiPlane[first]
	bit := uint64(1) << uint(first)
	for i := first + 1; i < len(loPlane); i++ {
		bit <<= 1
		if m&bit == 0 {
			continue
		}
		lo = core.Fmin(lo, loPlane[i])
		hi = core.Fmax(hi, hiPlane[i])
	}
	return lo, hi
}

// foldIntervalDelta extends an already-computed interval fold by the
// plane values at delta's set bits; see foldMinMaxDelta for why this is
// bit-identical to folding the union mask. delta must be non-empty.
func foldIntervalDelta(loPlane, hiPlane []float64, delta uint64, lo0, hi0 float64) (lo, hi float64) {
	lo, hi = lo0, hi0
	for m := delta; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		lo = core.Fmin(lo, loPlane[i])
		hi = core.Fmax(hi, hiPlane[i])
	}
	return lo, hi
}

// ---- QuantizedMidpoint ----

// DensePlanes implements core.DenseAlgorithm.
func (QuantizedMidpoint) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm: it validates Q and snaps the
// inputs down to the grid, mirroring NewAgent.
func (a QuantizedMidpoint) InitDense(st *core.DenseState) {
	if !(a.Q > 0) {
		panic(fmt.Sprintf("algorithms: QuantizedMidpoint requires Q > 0, got %v", a.Q))
	}
	for i, v := range st.Y {
		st.Y[i] = math.Floor(v/a.Q) * a.Q
	}
}

// StepDense implements core.DenseAlgorithm, sharing folds across equal
// in-masks like Midpoint.
func (a QuantizedMidpoint) StepDense(dst, src *core.DenseState, g graph.Graph) {
	if g.Words() > 1 {
		a.stepDenseW(dst, src, g)
		return
	}
	y, out := src.Y, dst.Y
	var lastMask uint64
	var snapped float64
	for j := 0; j < src.N(); j++ {
		if m := g.InMask(j); m != lastMask {
			lastMask = m
			lo, hi := foldMinMax(y, m)
			snapped = math.Floor((lo+hi)/(2*a.Q)) * a.Q
		}
		out[j] = snapped
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (QuantizedMidpoint) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (a QuantizedMidpoint) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagQuantized)
	dst = core.AppendFloat(dst, a.Q)
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *quantizedAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *quantizedAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}

// ---- FloodRoot ----

// DensePlanes implements core.DenseAlgorithm: the informed flag (0/1) and
// the learned root value.
func (FloodRoot) DensePlanes() int { return 2 }

// InitDense implements core.DenseAlgorithm. It panics when Root is not an
// agent, mirroring NewAgent.
func (f FloodRoot) InitDense(st *core.DenseState) {
	n := st.N()
	if f.Root < 0 || f.Root >= n {
		panic(fmt.Sprintf("algorithms: FloodRoot root %d out of range [0,%d)", f.Root, n))
	}
	inf, rv := st.Plane(floodPlaneInformed), st.Plane(floodPlaneRoot)
	for i := 0; i < n; i++ {
		inf[i], rv[i] = 0, 0
	}
	inf[f.Root] = 1
	rv[f.Root] = st.Y[f.Root]
}

// StepDense implements core.DenseAlgorithm. Whether a mask contains an
// informed sender (and which value the first one carries) is a pure
// function of the mask, shared across receivers.
func (FloodRoot) StepDense(dst, src *core.DenseState, g graph.Graph) {
	if g.Words() > 1 {
		floodRootStepDenseW(dst, src, g)
		return
	}
	n := src.N()
	y := src.Y
	inf0, rv0 := src.Plane(floodPlaneInformed), src.Plane(floodPlaneRoot)
	oy := dst.Y
	oinf, orv := dst.Plane(floodPlaneInformed), dst.Plane(floodPlaneRoot)
	var lastMask uint64
	heard := false
	var heardValue float64
	for j := 0; j < n; j++ {
		oy[j], oinf[j], orv[j] = y[j], inf0[j], rv0[j]
		if inf0[j] == 1 {
			continue
		}
		if m := g.InMask(j); m != lastMask {
			lastMask = m
			heard, heardValue = scanInformed(inf0, rv0, m)
		}
		if heard {
			oy[j], oinf[j], orv[j] = heardValue, 1, heardValue
		}
	}
}

// scanInformed reports whether the mask contains an informed sender and
// the root value carried by the first (lowest-index) one.
func scanInformed(inf0, rv0 []float64, m uint64) (heard bool, value float64) {
	for ; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); inf0[i] == 1 {
			return true, rv0[i]
		}
	}
	return false, 0
}

// OutputsDense implements core.DenseAlgorithm.
func (FloodRoot) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (FloodRoot) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagFloodRoot)
	informed := 0
	if st.Plane(floodPlaneInformed)[i] == 1 {
		informed = 1
	}
	dst = core.AppendInt(dst, informed)
	dst = core.AppendFloat(dst, st.Y[i])
	return core.AppendFloat(dst, st.Plane(floodPlaneRoot)[i]), true
}

func (a *floodRootAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	flag := 0.0
	if a.informed {
		flag = 1
	}
	st.Plane(floodPlaneInformed)[i] = flag
	st.Plane(floodPlaneRoot)[i] = a.rootValue
	return true
}

func (a *floodRootAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	a.informed = st.Plane(floodPlaneInformed)[i] == 1
	a.rootValue = st.Plane(floodPlaneRoot)[i]
	return true
}

// ---- FlowSum ----

// DensePlanes implements core.DenseAlgorithm.
func (FlowSum) DensePlanes() int { return 0 }

// InitDense implements core.DenseAlgorithm. It panics when the out-degree
// table does not cover every agent, mirroring NewAgent.
func (f FlowSum) InitDense(st *core.DenseState) {
	for i := 0; i < st.N(); i++ {
		if i >= len(f.OutDegrees) || f.OutDegrees[i] < 1 {
			panic(fmt.Sprintf("algorithms: FlowSum missing out-degree for agent %d", i))
		}
	}
}

// foldFlowSum returns the sum of y_i/deg_i over the mask's set bits.
func foldFlowSum(y []float64, degs []int, m uint64) float64 {
	sum := 0.0
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		sum += y[i] / float64(degs[i])
	}
	return sum
}

// StepDense implements core.DenseAlgorithm. The per-sender share
// y_i/deg_i is recomputed per receiver; IEEE division is deterministic,
// so the result matches the Agent path that computes it once in
// Broadcast.
func (f FlowSum) StepDense(dst, src *core.DenseState, g graph.Graph) {
	if g.Words() > 1 {
		f.stepDenseW(dst, src, g)
		return
	}
	y, out := src.Y, dst.Y
	var lastMask uint64
	var sum float64
	for j := 0; j < src.N(); j++ {
		if m := g.InMask(j); m != lastMask {
			lastMask = m
			sum = foldFlowSum(y, f.OutDegrees, m)
		}
		out[j] = sum
	}
}

// OutputsDense implements core.DenseAlgorithm.
func (FlowSum) OutputsDense(st *core.DenseState, out []float64) { copy(out, st.Y) }

// AppendDenseFingerprint implements core.DenseFingerprinter.
func (f FlowSum) AppendDenseFingerprint(dst []byte, st *core.DenseState, i int) ([]byte, bool) {
	dst = append(dst, tagFlowSum)
	dst = core.AppendInt(dst, f.OutDegrees[i])
	return core.AppendFloat(dst, st.Y[i]), true
}

func (a *flowSumAgent) WriteDense(st *core.DenseState, i int) bool {
	st.Y[i] = a.y
	return true
}

func (a *flowSumAgent) ReadDense(st *core.DenseState, i int) bool {
	a.y = st.Y[i]
	return true
}
