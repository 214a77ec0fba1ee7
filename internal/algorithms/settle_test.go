package algorithms_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// genericSettle hides an algorithm's settle kernel: embedding only the
// DenseAlgorithm interface promotes no DenseSettler method, so
// core.Settle runs its generic loop on it.
type genericSettle struct{ core.DenseAlgorithm }

// settlePair settles one state twice, through the algorithm's kernel and
// through the generic loop, each side with its own state and scratch.
type settlePair struct {
	stK, stG core.DenseState
	scK, scG core.SettleScratch
}

// mismatch settles y under g on both sides and describes any difference
// in round, ok, or — bit for bit — the returned hull; "" when none.
func (p *settlePair) mismatch(alg core.DenseAlgorithm, g graph.Graph, y []float64, settle int, tol float64) string {
	p.stK.Resize(len(y), 0)
	copy(p.stK.Y, y)
	p.stG.Resize(len(y), 0)
	copy(p.stG.Y, y)
	loK, hiK, rK, okK := core.Settle(alg, &p.stK, g, settle, tol, &p.scK)
	loG, hiG, rG, okG := core.Settle(genericSettle{alg}, &p.stG, g, settle, tol, &p.scG)
	if rK != rG || okK != okG ||
		math.Float64bits(loK) != math.Float64bits(loG) || math.Float64bits(hiK) != math.Float64bits(hiG) {
		return fmt.Sprintf("settle %d tol %g: kernel (%v, %v, %d, %v), generic (%v, %v, %d, %v)",
			settle, tol, loK, hiK, rK, okK, loG, hiG, rG, okG)
	}
	return ""
}

var (
	settleCaps = []int{0, 1, 3, 40, 512}
	settleTols = []float64{0, 1e-9, 1e-3}
	// settleSpecials are the values the kernel's steps and hull handle
	// apart from plain numbers: signed zeros, infinities, NaNs (one with
	// a payload), ±1.7e308, whose midpoint sum overflows, and subnormals.
	settleSpecials = []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000abc),
		1.7e308, -1.7e308, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
	}
)

// settleInputs draws n inputs in one of four shapes, by mode % 4:
// uniform in [-1, 1], uniform with a third replaced by special values, a
// cluster whose width straddles the tolerances, or special values only.
func settleInputs(rng *rand.Rand, n, mode int) []float64 {
	y := make([]float64, n)
	mode %= 4
	center, width := rng.Float64(), []float64{0, 1e-12, 1e-9, 1e-6}[rng.Intn(4)]
	for i := range y {
		switch {
		case mode == 0 || mode == 1 && rng.Intn(3) > 0:
			y[i] = rng.Float64()*2 - 1
		case mode == 1 || mode == 3:
			y[i] = settleSpecials[rng.Intn(len(settleSpecials))]
		default:
			y[i] = center + width*rng.Float64()
		}
	}
	return y
}

// twoAgentGraphs returns all four two-agent graphs: H0, H1, H2 and the
// graph with self-loops only.
func twoAgentGraphs() []graph.Graph {
	var gs []graph.Graph
	for _, masks := range [][]uint64{{1, 2}, {3, 2}, {1, 3}, {3, 3}} {
		g, err := graph.FromInWords(2, masks)
		if err != nil {
			panic(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// TestSettleKernelsMatchGenericLoop pins the DenseSettler contract: on
// every settle cap and tolerance, the TwoThirds kernel returns the
// generic loop's round and ok and its hull bit for bit, on all four
// two-agent graphs, with plain and special inputs.
func TestSettleKernelsMatchGenericLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var p settlePair
	for k, g := range twoAgentGraphs() {
		for trial := 0; trial < 40; trial++ {
			y := settleInputs(rng, 2, trial)
			for _, settle := range settleCaps {
				for _, tol := range settleTols {
					if msg := p.mismatch(algorithms.TwoThirds{}, g, y, settle, tol); msg != "" {
						t.Fatalf("graph %d trial %d, inputs %v: %s", k, trial, y, msg)
					}
				}
			}
		}
	}
}

// TestSettleAllocatesNothing requires core.Settle to allocate nothing
// after one warm-up call, through the TwoThirds kernel and through the
// generic loop; Midpoint has no kernel, so both its sides run the loop.
func TestSettleAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		name string
		alg  core.DenseAlgorithm
		g    graph.Graph
	}{
		{"twothirds", algorithms.TwoThirds{}, graph.HFamily()[0]},
		{"midpoint/psi5", algorithms.Midpoint{}, model.PsiModel(5).Graph(1)},
		{"midpoint/n130", algorithms.Midpoint{}, graph.RandomNonSplit(rng, 130, 0.3)},
	} {
		n := tc.g.N()
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.Float64()
		}
		for _, side := range []struct {
			name string
			alg  core.DenseAlgorithm
		}{{"kernel", tc.alg}, {"generic", genericSettle{tc.alg}}} {
			var st core.DenseState
			var sc core.SettleScratch
			run := func() {
				st.Resize(n, 0)
				copy(st.Y, y)
				if _, _, _, ok := core.Settle(side.alg, &st, tc.g, 512, 1e-9, &sc); !ok {
					t.Fatalf("%s/%s: settle did not converge", tc.name, side.name)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Errorf("%s/%s: Settle allocated %v times per call after warm-up", tc.name, side.name, allocs)
			}
		}
	}
}

// FuzzSettleKernels runs the kernel-against-generic-loop comparison on
// fuzzer-chosen two-agent graphs, inputs, caps and tolerances. Bit
// 2i+j of edges adds the edge from agent j to agent i.
func FuzzSettleKernels(f *testing.F) {
	f.Add(uint8(0x0a), 0.0, 1.0, uint16(512), 1e-9)
	f.Add(uint8(0x0f), math.Copysign(0, -1), math.NaN(), uint16(40), 0.0)
	f.Add(uint8(0x0b), 1.7e308, -1.7e308, uint16(3), 1e-3)
	f.Add(uint8(0x06), 0.0, 1.0, uint16(512), 1e-9)
	f.Add(uint8(0x09), math.Inf(-1), math.Inf(1), uint16(1), math.Inf(1))
	f.Add(uint8(0x0f), math.NaN(), math.Inf(-1), uint16(3), math.Inf(1))
	var p settlePair
	f.Fuzz(func(t *testing.T, edges uint8, y0, y1 float64, settle uint16, tol float64) {
		b := graph.NewBuilder(2)
		for bit := 0; bit < 4; bit++ {
			if edges>>bit&1 != 0 {
				b.Edge(bit%2, bit/2)
			}
		}
		if msg := p.mismatch(algorithms.TwoThirds{}, b.Graph(), []float64{y0, y1}, int(settle)%513, tol); msg != "" {
			t.Fatalf("inputs %v, %v: %s", y0, y1, msg)
		}
	})
}
