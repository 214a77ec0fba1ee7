package valency_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// selfRootCase is one self-rooted model graph under an algorithm that
// declares core.SelfRootKeeper: graph k of m is rooted at agent r, which
// hears only itself.
type selfRootCase struct {
	name string
	m    *model.Model
	k, r int
	alg  core.Algorithm
}

// selfRootCases lists every self-rooted graph of deaf:3–6, psi:4–6,
// twoagent (under two-thirds and midpoint), rooted:3 and nonsplit:3
// (under midpoint), in that order, so deaf:3's F_0 comes first.
func selfRootCases(t testing.TB) []selfRootCase {
	t.Helper()
	rooted3, err := model.AllRooted(3)
	if err != nil {
		t.Fatal(err)
	}
	nonsplit3, err := model.AllNonSplit(3)
	if err != nil {
		t.Fatal(err)
	}
	type family struct {
		name string
		m    *model.Model
		algs []core.Algorithm
	}
	mid := []core.Algorithm{algorithms.Midpoint{}}
	var models []family
	for n := 3; n <= 6; n++ {
		models = append(models, family{fmt.Sprintf("deaf:%d", n), model.DeafModel(graph.Complete(n)), mid})
	}
	for n := 4; n <= 6; n++ {
		models = append(models, family{fmt.Sprintf("psi:%d", n), model.PsiModel(n), mid})
	}
	models = append(models,
		family{"twoagent", model.TwoAgent(), []core.Algorithm{algorithms.TwoThirds{}, algorithms.Midpoint{}}},
		family{"rooted:3", rooted3, mid},
		family{"nonsplit:3", nonsplit3, mid})
	var cases []selfRootCase
	for _, md := range models {
		found := 0
		for k, g := range md.m.Graphs() {
			if !g.IsRooted() {
				continue
			}
			for r := 0; r < g.N(); r++ {
				if g.IsDeaf(r) {
					for _, alg := range md.algs {
						cases = append(cases, selfRootCase{fmt.Sprintf("%s/%s/graph-%d", md.name, alg.Name(), k), md.m, k, r, alg})
					}
					found++
					break
				}
			}
		}
		if found == 0 {
			t.Fatalf("%s has no self-rooted graph", md.name)
		}
	}
	return cases
}

// selfRootInputs draws n inputs in one of four shapes, by mode % 4:
// uniform in [-1, 1]; a cluster whose width straddles Tol; values a few
// ulps apart at a magnitude from 2^20 to 2^1000, where the settle can
// stall; or uniform with a value at the root that the closed form
// rejects (or, under two-thirds, that the settle overflows on).
func selfRootInputs(rng *rand.Rand, n, r, mode int) []float64 {
	y := make([]float64, n)
	center, width := rng.Float64(), []float64{0, 1e-12, 1e-9, 1e-6}[rng.Intn(4)]
	big := math.Ldexp(1+rng.Float64(), 20+rng.Intn(981))
	for i := range y {
		switch mode % 4 {
		case 0, 3:
			y[i] = rng.Float64()*2 - 1
		case 1:
			y[i] = center + width*rng.Float64()
		case 2:
			y[i] = big
			for u := rng.Intn(4); u > 0; u-- {
				y[i] = math.Nextafter(y[i], math.Inf(1))
			}
		}
	}
	if mode%4 == 3 {
		y[r] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1.7e308, -math.MaxFloat64}[rng.Intn(5)]
	}
	return y
}

// TestSelfRootLimitMatchesSettle is the closed form's property test, with
// the settle loop as its oracle, on random configurations of every
// self-rooted graph: whenever the settle converges, the closed form is ok,
// equals y_r bit for bit and lies within Tol/2 of the settled midpoint;
// whenever the closed form is not ok, the engine returns the settle's
// own verdict; and whenever it is ok, the engine returns y_r.
func TestSelfRootLimitMatchesSettle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := valency.DefaultParams(0, true)
	for _, tc := range selfRootCases(t) {
		eng := valency.NewEngine(tc.m, p)
		for trial := 0; trial < 12; trial++ {
			c := core.NewConfig(tc.alg, selfRootInputs(rng, tc.m.N(), tc.r, trial))
			y := c.Output(tc.r)
			lim, ok := closedForm(c, tc.m.Graph(tc.k))
			settled, settledOK := referenceLimit(tc.m, p, c, tc.k)
			if settledOK && (!ok || math.Float64bits(lim) != math.Float64bits(y) || math.Abs(lim-settled) > p.Tol/2) {
				t.Fatalf("%s, inputs %v: settle converged to %v, closed form (%v, %v)", tc.name, c.Outputs(), settled, lim, ok)
			}
			want, wantOK := lim, ok
			if !ok {
				want, wantOK = settled, settledOK
			}
			if got, gotOK := eng.LimitOfConstant(c, tc.k); math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
				t.Fatalf("%s, inputs %v: engine (%v, %v), want (%v, %v)", tc.name, c.Outputs(), got, gotOK, want, wantOK)
			}
		}
	}
}

// TestSelfRootLimitThroughStall pins the closed form where the float
// settle stalls: under F_0 of deaf:3 the two hearing agents round to 2^23
// forever, one ulp (more than Tol) from y_0 = 2^23 + ulp, so the settle
// fails, while the real-arithmetic limit is y_0, which the engine and
// its reference walk both report. The same holds at larger magnitudes.
func TestSelfRootLimitThroughStall(t *testing.T) {
	m := model.DeafModel(graph.Complete(3))
	p := valency.DefaultParams(0, true)
	for _, base := range []float64{1 << 23, 1 << 24, 1 << 30, 1e12, 1e300} {
		y0 := math.Nextafter(base, math.Inf(1))
		c := core.NewConfig(algorithms.Midpoint{}, []float64{y0, base, base})
		if _, ok := referenceLimit(m, p, c, 0); ok {
			t.Fatalf("base %g: the settle converged; the stall this test pins is gone", base)
		}
		if got, ok := valency.NewEngine(m, p).LimitOfConstant(c, 0); !ok || got != y0 {
			t.Fatalf("base %g: engine limit (%v, %v), want (%v, true)", base, got, ok, y0)
		}
		if got := valency.ReferenceInner(m, p, c); !got.Contains(y0) {
			t.Fatalf("base %g: reference Inner %v misses y_0 = %v", base, got, y0)
		}
	}
}

// FuzzSelfRootLimit fuzzes the closed form's float edges against the
// settle loop. twoThirds picks the two-thirds algorithm on twoagent,
// midpoint otherwise; pick chooses the self-rooted graph; values supplies
// the inputs' float64 bit patterns (little-endian, cycled). It checks
// that SelfRootKeeps(y_r) holds exactly when y_r is finite and one
// self-only step keeps it bit for bit; that the engine returns y_r when
// it holds and the settle's own verdict otherwise; and that a converged
// settle's hull contains y_r when it holds.
func FuzzSelfRootLimit(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// Every seed puts its edge value at agent 0, the self root of the
	// first case of either list: F_0 of deaf:3 and H1 of twoagent.
	half := math.MaxFloat64 / 2
	inf, nan, neg0 := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	for _, vs := range [][]float64{
		{0, neg0, 5e-324}, {neg0, 0, 1}, {5e-324, -5e-324, 0}, {-5e-324, 2.2250738585072009e-308, 0},
		{half, 1, 0}, {math.Nextafter(half, inf), half, 0}, {math.Nextafter(half, 0), half, half},
		{-half, 0, 1}, {math.Nextafter(-half, -inf), 0, 1}, {math.MaxFloat64, 0, 1},
		{inf, 0, 1}, {-inf, nan, 1}, {nan, 0, 1},
	} {
		f.Add(false, uint8(0), le(vs...))
		f.Add(true, uint8(0), le(vs[:2]...))
	}
	for _, base := range []float64{1 << 23, 1 << 24, 1 << 30, 1e12, 1e300} {
		f.Add(false, uint8(0), le(math.Nextafter(base, inf), base, base))
	}
	var midCases, twoCases []selfRootCase
	for _, tc := range selfRootCases(f) {
		switch _, two := tc.alg.(algorithms.TwoThirds); {
		case two:
			twoCases = append(twoCases, tc)
		case tc.m.N() <= 4:
			midCases = append(midCases, tc)
		}
	}
	p := valency.DefaultParams(0, true)
	f.Fuzz(func(t *testing.T, twoThirds bool, pick uint8, values []byte) {
		cases := midCases
		if twoThirds {
			cases = twoCases
		}
		tc := cases[int(pick)%len(cases)]
		y := make([]float64, tc.m.N())
		for i := range y {
			if k := len(values) / 8; k > 0 {
				y[i] = math.Float64frombits(binary.LittleEndian.Uint64(values[i%k*8:]))
			} else {
				y[i] = float64(i)
			}
		}
		c := core.NewConfig(tc.alg, y)
		yr := y[tc.r]
		ok := tc.alg.(core.SelfRootKeeper).SelfRootKeeps(yr)
		kept := c.Step(tc.m.Graph(tc.k)).Output(tc.r)
		finiteKept := !math.IsInf(yr, 0) && !math.IsNaN(yr) && math.Float64bits(kept) == math.Float64bits(yr)
		if ok != finiteKept {
			t.Fatalf("%s: SelfRootKeeps(%v) = %v; one self-only step gives %v", tc.name, yr, ok, kept)
		}
		lo, hi, settledOK := settleHull(tc.m, p, c, tc.k)
		want, wantOK := yr, ok
		if !ok {
			want, wantOK = valency.HullMidpoint(lo, hi), settledOK
		}
		got, gotOK := valency.NewEngine(tc.m, p).LimitOfConstant(c, tc.k)
		if gotOK != wantOK || wantOK && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s, inputs %v: engine (%v, %v), want (%v, %v)", tc.name, y, got, gotOK, want, wantOK)
		}
		if ok && settledOK && !(lo <= yr && yr <= hi) {
			t.Fatalf("%s, inputs %v: settled hull [%v, %v] misses y_r = %v", tc.name, y, lo, hi, yr)
		}
	})
}
