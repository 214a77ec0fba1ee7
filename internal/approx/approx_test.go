package approx_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

func TestDecisionRounds(t *testing.T) {
	cases := []struct {
		contraction, delta, eps float64
		want                    int
	}{
		{1.0 / 3.0, 1, 1.0 / 3.0, 1},
		{1.0 / 3.0, 1, 0.34, 1},
		{1.0 / 3.0, 1, 0.1, 3}, // 3^-2 = 1/9 > 0.1 -> need 3
		{0.5, 1, 0.5, 1},
		{0.5, 1, 1.0 / 1024, 10},
		{0.5, 8, 1, 3},
		{0.5, 1, 2, 0}, // eps >= delta: decide immediately
	}
	for _, tc := range cases {
		if got := approx.DecisionRounds(tc.contraction, tc.delta, tc.eps); got != tc.want {
			t.Errorf("DecisionRounds(%v, %v, %v) = %d, want %d",
				tc.contraction, tc.delta, tc.eps, got, tc.want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad contraction accepted")
			}
		}()
		approx.DecisionRounds(1.5, 1, 0.1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad eps accepted")
			}
		}()
		approx.DecisionRounds(0.5, 1, 0)
	}()
}

func TestLowerBoundFormulas(t *testing.T) {
	if got := approx.Theorem8LowerBound(1, 1.0/27); math.Abs(got-3) > 1e-12 {
		t.Errorf("Theorem8(1, 3^-3) = %v, want 3", got)
	}
	if got := approx.Theorem9LowerBound(1, 1.0/32); math.Abs(got-5) > 1e-12 {
		t.Errorf("Theorem9(1, 2^-5) = %v, want 5", got)
	}
	if got := approx.Theorem10LowerBound(6, 1, 1.0/8); math.Abs(got-12) > 1e-12 {
		t.Errorf("Theorem10(n=6, 1, 2^-3) = %v, want (6-2)*3 = 12", got)
	}
	if got := approx.Theorem11LowerBound(2, 2, 1, 1.0/18); math.Abs(got-2) > 1e-12 {
		t.Errorf("Theorem11(D=2, n=2, 1, 1/18) = %v, want 2 (log_3 9)", got)
	}
	if got := approx.Theorem11LowerBound(2, 4, 1, 1); got != 0 {
		t.Errorf("Theorem11 with eps*n >= delta = %v, want 0", got)
	}
}

// decideAt runs alg from inputs against src for the given number of
// rounds and judges the outputs it decides then, as DecisionSweep does.
func decideAt(alg core.Algorithm, inputs []float64, src core.PatternSource, rounds int, eps float64) approx.Result {
	tr := core.Run(alg, inputs, src, rounds)
	return approx.Decide(inputs, tr.Outputs[rounds], rounds, eps)
}

// TestTwoThirdsDeciderMatchesTheorem8 checks the tight pair for n = 2: the
// two-thirds decider achieves ε-agreement against the *worst* constant
// pattern in exactly ⌈log3(Δ/ε)⌉ rounds, and its decision round never
// exceeds the Theorem 8 lower bound by more than the one-round ceiling.
func TestTwoThirdsDeciderMatchesTheorem8(t *testing.T) {
	d := approx.Decider{Alg: algorithms.TwoThirds{}, Contraction: 1.0 / 3.0}
	for _, eps := range []float64{0.3, 0.1, 1e-2, 1e-4, 1e-6} {
		res := d.Run([]float64{0, 1}, core.Fixed{G: graph.H(1)}, 1, eps)
		if !res.EpsAgreement {
			t.Errorf("eps=%v: decider failed ε-agreement (spread %v)", eps, res.Spread)
		}
		if !res.Validity {
			t.Errorf("eps=%v: decider violated validity", eps)
		}
		lb := approx.Theorem8LowerBound(1, eps)
		if float64(res.DecisionRound) < lb-1e-9 {
			t.Errorf("eps=%v: decided in %d rounds, below the Theorem 8 bound %v — impossible",
				eps, res.DecisionRound, lb)
		}
		if float64(res.DecisionRound) > lb+1 {
			t.Errorf("eps=%v: decided in %d rounds, more than one round above optimum %v",
				eps, res.DecisionRound, lb)
		}
		// Tightness: one round earlier the worst pattern still violates ε.
		if res.DecisionRound > 0 {
			early := decideAt(d.Alg, []float64{0, 1}, core.Fixed{G: graph.H(1)}, res.DecisionRound-1, eps)
			if early.EpsAgreement {
				t.Errorf("eps=%v: ε-agreement already holds one round early — decision time not tight", eps)
			}
		}
	}
}

// TestDecidingUnderAdversarialPerturbation checks decision stability: the
// two-thirds decider, deciding at its round for Δ = 1 and ε = 0.05 against
// every length-3 pattern prefix over {H0, H1, H2} (then H1), always
// agrees within ε and stays valid.
func TestDecidingUnderAdversarialPerturbation(t *testing.T) {
	eps := 0.05
	rounds := approx.DecisionRounds(1.0/3.0, 1, eps)
	var walk func(prefix []graph.Graph)
	walk = func(prefix []graph.Graph) {
		if len(prefix) == 3 {
			src := core.Sequence{Graphs: append(append([]graph.Graph{}, prefix...), graph.H(1))}
			if res := decideAt(algorithms.TwoThirds{}, []float64{0, 1}, src, rounds, eps); !res.EpsAgreement || !res.Validity {
				t.Fatalf("prefix %v: decided %v (spread %v, valid %v)", prefix, res.Decisions, res.Spread, res.Validity)
			}
			return
		}
		for k := 0; k < 3; k++ {
			walk(append(prefix, graph.H(k)))
		}
	}
	walk(nil)
}

// TestMidpointDeciderMatchesTheorem9 checks the non-split pair: the
// midpoint decider needs exactly ⌈log2(Δ/ε)⌉ rounds against the worst
// deaf(K_n) pattern: it meets ε then and misses it one round earlier.
func TestMidpointDeciderMatchesTheorem9(t *testing.T) {
	for _, n := range []int{3, 5} {
		d := approx.Decider{Alg: algorithms.Midpoint{}, Contraction: 0.5}
		inputs := make([]float64, n)
		inputs[0], inputs[1] = 0, 1
		for i := 2; i < n; i++ {
			inputs[i] = 0.5
		}
		worst := core.Fixed{G: graph.Deaf(graph.Complete(n), 0)}
		for _, eps := range []float64{0.3, 1e-3, 1e-6} {
			res := d.Run(inputs, worst, 1, eps)
			if !res.EpsAgreement || !res.Validity {
				t.Errorf("n=%d eps=%v: decider failed (spread %v)", n, eps, res.Spread)
			}
			lb := approx.Theorem9LowerBound(1, eps)
			if float64(res.DecisionRound) < lb-1e-9 {
				t.Errorf("n=%d eps=%v: decision round %d below Theorem 9 bound %v",
					n, eps, res.DecisionRound, lb)
			}
			if float64(res.DecisionRound) > lb+1 {
				t.Errorf("n=%d eps=%v: decision round %d more than a round above optimum %v",
					n, eps, res.DecisionRound, lb)
			}
			if res.DecisionRound > 0 {
				if early := decideAt(d.Alg, inputs, worst, res.DecisionRound-1, eps); early.EpsAgreement {
					t.Errorf("n=%d eps=%v: ε-agreement already holds one round early (spread %v)", n, eps, early.Spread)
				}
			}
		}
	}
}

// TestCheckRunVerdicts checks the verdicts Decide gives on decisions it
// is handed: it reports the round and the spread, accepts a spread up to
// ε (with its relative slack) and rejects one past it, and judges
// validity against the inputs' hull — decisions that agree exactly but
// leave the hull are invalid, ones within 1e-9 of it are not.
func TestCheckRunVerdicts(t *testing.T) {
	inputs := []float64{0, 1, 0.5}
	cases := []struct {
		name            string
		decisions       []float64
		eps, spread     float64
		agreement, hull bool
	}{
		{"within", []float64{0.25, 0.3, 0.26}, 0.1, 0.05, true, true},
		{"exactly-eps", []float64{0.25, 0.5, 0.375}, 0.25, 0.25, true, true},
		{"past-eps", []float64{0.25, 0.5, 0.375}, 0.25 * (1 - 1e-6), 0.25, false, true},
		{"above-hull", []float64{1.5, 1.5, 1.5}, 0.1, 0, true, false},
		{"below-hull", []float64{-0.01, 0, 0}, 0.1, 0.01, true, false},
		{"hull-slack", []float64{-1e-10, 1 + 1e-10, 0.5}, 2, 1 + 2e-10, true, true},
	}
	for _, tc := range cases {
		res := approx.Decide(inputs, tc.decisions, 7, tc.eps)
		if res.DecisionRound != 7 || !slices.Equal(res.Decisions, tc.decisions) {
			t.Errorf("%s: round %d and decisions %v not reported as given", tc.name, res.DecisionRound, res.Decisions)
		}
		if math.Abs(res.Spread-tc.spread) > 1e-15 {
			t.Errorf("%s: spread %v, want %v", tc.name, res.Spread, tc.spread)
		}
		if res.EpsAgreement != tc.agreement || res.Validity != tc.hull {
			t.Errorf("%s: ε-agreement %v validity %v, want %v %v", tc.name, res.EpsAgreement, res.Validity, tc.agreement, tc.hull)
		}
	}
}

// TestAmortizedDeciderNearTheorem10 checks the rooted pair: the amortized
// midpoint decider needs (n-1)⌈log2(Δ/ε)⌉ rounds, within the (n-1)/(n-2)
// factor of Theorem 10's (n-2)·log2(Δ/ε) bound the paper states.
func TestAmortizedDeciderNearTheorem10(t *testing.T) {
	for _, n := range []int{4, 6} {
		contraction := math.Pow(0.5, 1/float64(n-1))
		d := approx.Decider{Alg: algorithms.AmortizedMidpoint{}, Contraction: contraction}
		inputs := make([]float64, n)
		inputs[0], inputs[1] = 0, 1
		for i := 2; i < n; i++ {
			inputs[i] = 0.5
		}
		for _, eps := range []float64{0.2, 1e-3} {
			res := d.Run(inputs, core.Cycle{Graphs: graph.PsiFamily(n)}, 1, eps)
			if !res.EpsAgreement || !res.Validity {
				t.Errorf("n=%d eps=%v: amortized decider failed (spread %v, round %d)",
					n, eps, res.Spread, res.DecisionRound)
			}
			lb := approx.Theorem10LowerBound(n, 1, eps)
			if float64(res.DecisionRound) < lb-1e-9 {
				t.Errorf("n=%d eps=%v: decision round %d below Theorem 10 bound %v",
					n, eps, res.DecisionRound, lb)
			}
			// Optimality within a multiplicative (n-1)/(n-2) plus one
			// phase-rounding round per the paper.
			slack := (float64(res.DecisionRound) - float64(n-1)) * float64(n-2) / float64(n-1)
			if slack > lb+1e-9 && lb > 0 {
				t.Errorf("n=%d eps=%v: decision round %d not within (n-1)/(n-2) of bound %v",
					n, eps, res.DecisionRound, lb)
			}
		}
	}
}

func TestDeciderPanicsOnUndeclaredDiameter(t *testing.T) {
	d := approx.Decider{Alg: algorithms.Midpoint{}, Contraction: 0.5}
	defer func() {
		if recover() == nil {
			t.Error("initial diameter above delta accepted")
		}
	}()
	d.Run([]float64{0, 2}, core.Fixed{G: graph.H(0)}, 1, 0.1)
}

// TestTheorem11Consistency cross-checks Theorem 11 against the computed
// alpha-diameter of the two-agent model: with D = 2 the generic bound
// log_3(Δ/(2ε)) must stay below the specialized Theorem 8 bound
// log_3(Δ/ε).
func TestTheorem11Consistency(t *testing.T) {
	m := model.TwoAgent()
	dAlpha, finite := m.AlphaDiameter()
	if !finite || dAlpha != 2 {
		t.Fatalf("two-agent alpha-diameter = %d (finite=%v), want 2", dAlpha, finite)
	}
	for _, eps := range []float64{1e-2, 1e-4} {
		generic := approx.Theorem11LowerBound(dAlpha, 2, 1, eps)
		special := approx.Theorem8LowerBound(1, eps)
		if generic > special+1e-9 {
			t.Errorf("eps=%v: generic bound %v exceeds specialized bound %v", eps, generic, special)
		}
	}
}
