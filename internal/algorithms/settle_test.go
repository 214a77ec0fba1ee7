package algorithms_test

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
)

// genericSettle hides an algorithm's settle kernel: embedding only the
// DenseAlgorithm interface promotes no DenseSettler method, so
// core.Settle runs its generic loop on it.
type genericSettle struct{ core.DenseAlgorithm }

// settlePair settles one state twice, through the algorithm's kernel and
// through the generic loop, each side with its own state and scratch.
// The scratches are reused across calls, so the kernels also run on
// scratch left over from other shapes.
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
	// settleSpecials are the values the kernels' fold and hull handle
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

// settleGraph draws an n-node graph: fully random at a random density,
// or, when classed, built from a few row classes whose members are
// scattered over the receivers, so equal rows also occur far apart.
func settleGraph(rng *rand.Rand, n int, classed bool) graph.Graph {
	if !classed {
		return graph.Random(rng, n, 0.05+0.9*rng.Float64())
	}
	k := 1 + rng.Intn(min(n, 4))
	class := make([]int, n)
	for i := range class {
		class[i] = rng.Intn(k)
	}
	rows := make([][]uint64, k)
	for c := range rows {
		rows[c] = make([]uint64, graph.WordsFor(n))
		for i := 0; i < n; i++ {
			if class[i] == c || rng.Intn(3) == 0 {
				rows[c][i/64] |= 1 << uint(i%64)
			}
		}
	}
	b := graph.NewBuilder(n)
	for i := range class {
		b.SetInRow(i, rows[class[i]])
	}
	return b.Graph()
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
// every settle cap and tolerance, the Midpoint and TwoThirds kernels
// return the generic loop's round and ok and its hull bit for bit —
// Midpoint on random graphs on both sides of the mask-word boundaries,
// TwoThirds on all four two-agent graphs, both on the lower-bound model
// graphs, with plain and special inputs.
func TestSettleKernelsMatchGenericLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var p settlePair
	check := func(name string, alg core.DenseAlgorithm, g graph.Graph, y []float64) {
		t.Helper()
		for _, settle := range settleCaps {
			for _, tol := range settleTols {
				if msg := p.mismatch(alg, g, y, settle, tol); msg != "" {
					t.Fatalf("%s, inputs %v, graph %v: %s", name, y, g, msg)
				}
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 130} {
		// Trials pair each graph kind with each input shape in turn, so
		// the four trials past the word boundary see both graph kinds
		// under plain and partly special inputs.
		trials := 40
		if n > 9 {
			trials = 4
		}
		for trial := 0; trial < trials; trial++ {
			check(fmt.Sprintf("midpoint n=%d trial %d", n, trial), algorithms.Midpoint{},
				settleGraph(rng, n, trial%2 == 1), settleInputs(rng, n, trial/2))
		}
	}
	for k, g := range twoAgentGraphs() {
		for trial := 0; trial < 40; trial++ {
			check(fmt.Sprintf("twothirds graph %d trial %d", k, trial), algorithms.TwoThirds{}, g, settleInputs(rng, 2, trial))
		}
	}
	for _, tc := range []struct {
		name string
		m    *model.Model
		alg  core.DenseAlgorithm
	}{
		{"twoagent", model.TwoAgent(), algorithms.TwoThirds{}},
		{"deaf:3", model.DeafModel(graph.Complete(3)), algorithms.Midpoint{}},
		{"deaf:4", model.DeafModel(graph.Complete(4)), algorithms.Midpoint{}},
		{"psi:5", model.PsiModel(5), algorithms.Midpoint{}},
	} {
		for k := 0; k < tc.m.Size(); k++ {
			for trial := 0; trial < 20; trial++ {
				check(fmt.Sprintf("%s graph %d trial %d", tc.name, k, trial), tc.alg,
					tc.m.Graph(k), settleInputs(rng, tc.m.N(), trial))
			}
		}
	}
}

// TestSettleAllocatesNothing requires core.Settle to allocate nothing
// after one warm-up call, through a kernel and through the generic loop.
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
// fuzzer-chosen graphs, inputs, caps and tolerances. edges supplies the
// adjacency bits (receiver-major, cycled), values the inputs' float64
// bit patterns (little-endian, cycled); twoThirds picks the TwoThirds
// kernel at n = 2, the Midpoint kernel otherwise at n = 1 + n%130.
func FuzzSettleKernels(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(false, uint8(4), []byte{0x5a, 0xc3}, le(0, 1, 0.5, 0.25, 0.75), uint16(512), 1e-9)
	f.Add(false, uint8(2), []byte{0xff}, le(math.Copysign(0, -1), 0, math.NaN()), uint16(40), 0.0)
	f.Add(false, uint8(64), []byte{0x01, 0x80, 0x33}, le(1.7e308, -1.7e308, 5e-324, math.Inf(1)), uint16(3), 1e-3)
	f.Add(true, uint8(0), []byte{0x06}, le(0, 1), uint16(512), 1e-9)
	f.Add(true, uint8(0), []byte{0x09}, le(math.Inf(-1), math.Inf(1)), uint16(1), math.Inf(1))
	f.Add(false, uint8(2), []byte{0xff, 0xff}, le(math.NaN(), math.Inf(-1), math.Inf(1)), uint16(3), math.Inf(1))
	var p settlePair
	f.Fuzz(func(t *testing.T, twoThirds bool, n8 uint8, edges, values []byte, settle uint16, tol float64) {
		var alg core.DenseAlgorithm = algorithms.Midpoint{}
		n := 1 + int(n8)%130
		if twoThirds {
			alg, n = algorithms.TwoThirds{}, 2
		}
		b := graph.NewBuilder(n)
		for i := 0; i < n && len(edges) > 0; i++ {
			for j := 0; j < n; j++ {
				if bit := i*n + j; edges[bit/8%len(edges)]>>(bit%8)&1 != 0 {
					b.Edge(j, i)
				}
			}
		}
		y := make([]float64, n)
		for i := range y {
			if k := len(values) / 8; k > 0 {
				y[i] = math.Float64frombits(binary.LittleEndian.Uint64(values[i%k*8:]))
			} else {
				y[i] = float64(i)
			}
		}
		if msg := p.mismatch(alg, b.Graph(), y, int(settle)%513, tol); msg != "" {
			t.Fatalf("n %d, inputs %v: %s", n, y, msg)
		}
	})
}
