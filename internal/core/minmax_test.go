package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
)

// specialValues are the inputs on which an inlined min/max can diverge
// from math.Min/math.Max: signed zeros, infinities, NaN, and the extremes
// of the finite range.
var specialValues = []float64{
	math.Inf(-1), -math.MaxFloat64, -2.5, -1, -math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 2.5,
	math.MaxFloat64, math.Inf(1), math.NaN(),
}

// TestFminFmaxMatchMath pins the inlinable fold primitives against
// math.Min/math.Max bit for bit over all pairs of special and ordinary
// values — NaN canonicalization and the -0/+0 tie-breaks included — which
// is what licenses substituting them in the hulls and the dense steppers.
func TestFminFmaxMatchMath(t *testing.T) {
	for _, x := range specialValues {
		for _, y := range specialValues {
			if got, want := core.Fmin(x, y), math.Min(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Fmin(%v, %v) = %v (bits %x), math.Min = %v (bits %x)",
					x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := core.Fmax(x, y), math.Max(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Fmax(%v, %v) = %v (bits %x), math.Max = %v (bits %x)",
					x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestHullMatchesMathFold is the property behind the inlined hulls:
// core.Hull, core.Diameter and Config.Hull must equal a left fold with
// math.Min/math.Max bit for bit, on random slices mixing ordinary values
// with signed zeros, infinities and NaN. One zero-seeded PRNG draws every
// slice, so a failure reproduces exactly.
func TestHullMatchesMathFold(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return specialValues[rng.Intn(len(specialValues))]
		}
		return rng.NormFloat64()
	}
	for trial := 0; trial < 5000; trial++ {
		values := make([]float64, 1+rng.Intn(12))
		for i := range values {
			values[i] = draw()
		}
		lo, hi := values[0], values[0]
		for _, v := range values[1:] {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		same := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d %v: %s = %v (bits %x), math fold gives %v (bits %x)",
					trial, values, what, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		gotLo, gotHi := core.Hull(values)
		same("Hull lo", gotLo, lo)
		same("Hull hi", gotHi, hi)
		same("Diameter", core.Diameter(values), hi-lo)
		cfgLo, cfgHi := core.NewConfig(algorithms.Midpoint{}, values).Hull()
		same("Config.Hull lo", cfgLo, lo)
		same("Config.Hull hi", cfgHi, hi)
	}
}
