package algorithms

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/graph"
)

// This file implements the dense struct-of-arrays path
// (core.DenseAlgorithm) for every algorithm in the package except
// FlowSum, which runs on the Agent path only, plus the agent<->dense state
// bridges (core.DenseStateWriter/Reader) and the dense fingerprints,
// which encode a dense state exactly as the Agent path encodes the same
// configuration.
//
// Every stepper and fold reads the graph as mask rows (graph.InRow): one
// word per receiver for n <= 64, ⌈n/64⌉ words beyond, with one body for
// every width. Receivers whose rows are equal share one fold through a
// last-row memo; the rows are compared with graph.SetsEqual.
//
// Bit-identity contract: each stepper performs exactly the float
// operations of the corresponding Agent's Deliver, visiting senders in
// ascending index — the order Step builds the inbox in. min/max folds may
// start from a different element of the same multiset (math.Min/Max are
// exact selections, so the result is order-independent); sums and
// averaged updates replicate the Deliver expressions verbatim. The
// differential tests in dense_test.go pin the equivalence on randomized
// graph sequences on both sides of the word boundary, and
// TestDenseFingerprintParity pins the fingerprint encodings.

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

// firstBit returns the index of the row's lowest set bit and the word
// holding it, with that bit cleared. row must be non-empty.
func firstBit(row []uint64) (i, wi int, rest uint64) {
	for row[wi] == 0 {
		wi++
	}
	m := row[wi]
	return wi*64 + bits.TrailingZeros64(m), wi, m & (m - 1)
}

// foldMinMax returns the min and max of y over the row's set bits,
// visited in ascending index — the Agent path's inbox order. It seeds
// from the first set bit: seeding with ±Inf would be bit-exact too, but
// would send every fold's first element through the outlined slow half
// of core.Fmin/Fmax. The fold result is a pure function of the value
// multiset (core.Fmin/Fmax are exact selections with multiset-determined
// NaN and -0 handling), which is what licenses the per-row memoization in
// the steppers: receivers sharing an in-row share the fold. row must be
// non-empty (every row carries the self-loop).
func foldMinMax(y []float64, row []uint64) (lo, hi float64) {
	i, wi, m := firstBit(row)
	lo, hi = y[i], y[i]
	for {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			v := y[base+bits.TrailingZeros64(m)]
			lo = core.Fmin(lo, v)
			hi = core.Fmax(hi, v)
		}
		if wi++; wi == len(row) {
			return lo, hi
		}
		m = row[wi]
	}
}

// foldMinMaxDelta extends an already-computed fold (lo, hi) by the
// values at the delta row's set bits — the subset-delta path of
// MaskSeg.Base. Bit-identical to folding the union row directly in index
// order: core.Fmin/Fmax are exact multiset selections (NaN and
// signed-zero handling included), so association order is free.
func foldMinMaxDelta(y []float64, delta []uint64, lo, hi float64) (float64, float64) {
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

// StepDense implements core.DenseAlgorithm. Receivers with equal in-rows
// (ubiquitous in the paper's families: complete, deaf, Psi, silence
// blocks) share one fold via the last-row memo.
func (Midpoint) StepDense(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	var last []uint64
	var mid float64
	for j := range out {
		if row := g.InRow(j); !graph.SetsEqual(row, last) {
			lo, hi := foldMinMax(y, row)
			mid = (lo + hi) / 2
			last = row
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
		if g.InRow(j)[0]&(1<<uint(o)) != 0 {
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

// foldMean returns the mean of y over the row's set bits. The sum starts
// at 0.0 and adds in ascending index, exactly the Agent path's Deliver
// order: the leading zero addition matters for -0 inputs. row must be
// non-empty.
func foldMean(y []float64, row []uint64) float64 {
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

// StepDense implements core.DenseAlgorithm. The received mean is a pure
// function of the in-row, so receivers sharing a row share the fold.
func (Mean) StepDense(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	var last []uint64
	var mean float64
	for j := range out {
		if row := g.InRow(j); !graph.SetsEqual(row, last) {
			mean = foldMean(y, row)
			last = row
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
	y, out := src.Y, dst.Y
	for j := range out {
		sum, count := 0.0, 0
		for wi, m := range g.InRow(j) {
			base := wi * 64
			for ; m != 0; m &= m - 1 {
				if i := base + bits.TrailingZeros64(m); i != j {
					sum += y[i]
					count++
				}
			}
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
// in-row and receivers sharing a row share the fold (min/max are exact
// selections — see foldMinMax).
func (AmortizedMidpoint) StepDense(dst, src *core.DenseState, g graph.Graph) {
	phaseEnd := dst.Round()%amortizedPhase(src.N()) == 0
	y := src.Y
	lo0, hi0 := src.Plane(amortizedPlaneLo), src.Plane(amortizedPlaneHi)
	oy := dst.Y
	olo, ohi := dst.Plane(amortizedPlaneLo), dst.Plane(amortizedPlaneHi)
	var last []uint64
	var lo, hi float64
	for j := range oy {
		if row := g.InRow(j); !graph.SetsEqual(row, last) {
			last = row
			lo, hi = foldInterval(lo0, hi0, row)
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
// row's set bits, in ascending index, seeded from the first set bit like
// foldMinMax. row must be non-empty.
func foldInterval(loPlane, hiPlane []float64, row []uint64) (lo, hi float64) {
	i, wi, m := firstBit(row)
	lo, hi = loPlane[i], hiPlane[i]
	for {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			lo = core.Fmin(lo, loPlane[i])
			hi = core.Fmax(hi, hiPlane[i])
		}
		if wi++; wi == len(row) {
			return lo, hi
		}
		m = row[wi]
	}
}

// foldIntervalDelta extends an already-computed interval fold by the
// plane values at the delta row's set bits; see foldMinMaxDelta for why
// this is bit-identical to folding the union row.
func foldIntervalDelta(loPlane, hiPlane []float64, delta []uint64, lo, hi float64) (float64, float64) {
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
// in-rows like Midpoint.
func (a QuantizedMidpoint) StepDense(dst, src *core.DenseState, g graph.Graph) {
	y, out := src.Y, dst.Y
	var last []uint64
	var snapped float64
	for j := range out {
		if row := g.InRow(j); !graph.SetsEqual(row, last) {
			last = row
			lo, hi := foldMinMax(y, row)
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

// StepDense implements core.DenseAlgorithm. Whether a row contains an
// informed sender (and which value the first one carries) is a pure
// function of the row, shared across receivers.
func (FloodRoot) StepDense(dst, src *core.DenseState, g graph.Graph) {
	y := src.Y
	inf0, rv0 := src.Plane(floodPlaneInformed), src.Plane(floodPlaneRoot)
	oy := dst.Y
	oinf, orv := dst.Plane(floodPlaneInformed), dst.Plane(floodPlaneRoot)
	var last []uint64
	heard := false
	var heardValue float64
	for j := range oy {
		oy[j], oinf[j], orv[j] = y[j], inf0[j], rv0[j]
		if inf0[j] == 1 {
			continue
		}
		if row := g.InRow(j); !graph.SetsEqual(row, last) {
			last = row
			heard, heardValue = scanInformed(inf0, rv0, row)
		}
		if heard {
			oy[j], oinf[j], orv[j] = heardValue, 1, heardValue
		}
	}
}

// scanInformed reports whether the row contains an informed sender and
// the root value carried by the first (lowest-index) one.
func scanInformed(inf0, rv0 []float64, row []uint64) (heard bool, value float64) {
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
