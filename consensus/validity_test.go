package consensus

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
)

// flowSumLibrary returns a copy of the default library with "flow-sum"
// registered: FlowSum with unit out-degrees replaces each value by the
// sum of the received ones, so it leaves the input hull — the paper's
// non-convex example, and the way to reach Validity: false, since every
// registered algorithm is convex. FlowSum has no dense stepper, so every
// path runs its Agent.
func flowSumLibrary(t *testing.T) *Library {
	t.Helper()
	lib := copyLibrary(t, nil)
	err := lib.Algorithms.Register(AlgorithmFactory{
		Name: "flow-sum", Usage: "flow-sum",
		Summary: "sum of the received values (FlowSum with unit out-degrees); not convex",
		New: func(arg string, n int) (core.Algorithm, error) {
			if err := noArg("flow-sum", arg); err != nil {
				return nil, err
			}
			degs := make([]int, n)
			for i := range degs {
				degs[i] = 1
			}
			return algorithms.NewFlowSum(degs), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestSweepReportsValidityViolations runs specs whose outputs leave the
// input hull from above (positive inputs summed) and from below
// (negative inputs summed) next to a convex control: the default sweep,
// SweepBatchSize(1) and Summarize(Session.Run) must all report
// Validity: false for the first two and true for the control, with
// bit-identical summaries across the three.
func TestSweepReportsValidityViolations(t *testing.T) {
	lib := flowSumLibrary(t)
	specs := []RunSpec{
		{Model: "deaf:3", Algorithm: "flow-sum", Adversary: "cycle", Rounds: 5, Inputs: []float64{1, 2, 3}},
		{Model: "deaf:3", Algorithm: "flow-sum", Adversary: "cycle", Rounds: 5, Inputs: []float64{-1, -2, -3}},
		{Model: "deaf:3", Algorithm: "midpoint", Adversary: "cycle", Rounds: 5, Inputs: []float64{1, 2, 3}},
	}
	want := []bool{false, false, true}
	ctx := context.Background()
	for _, mode := range []struct {
		name string
		opts []SweepOption
	}{
		{"default", nil},
		{"unbatched", []SweepOption{SweepBatchSize(1)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := append([]SweepOption{WithSweepCache(NewSweepCache()), SweepLibrary(lib)}, mode.opts...)
			res, err := Sweep(ctx, specs, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if r.Err != "" || r.Summary == nil {
					t.Fatalf("spec %d: error %q, summary %v", i, r.Err, r.Summary)
				}
				if r.Summary.Validity != want[i] {
					t.Errorf("spec %d: Validity = %v, want %v (final outputs %v)",
						i, r.Summary.Validity, want[i], r.Summary.FinalOutputs)
				}
				ref, ok := sessionSummary(t, specs[i], WithLibrary(lib))
				if !ok {
					t.Fatalf("spec %d does not resolve as a session", i)
				}
				if d := summaryDiff(ref, r.Summary); d != "" {
					t.Errorf("spec %d: sweep summary differs from Summarize(Session.Run): %s", i, d)
				}
			}
		})
	}
}

// TestRunStatsValidity pins the streaming summarizer's validity test —
// the one every batchable sweep summary uses — against an initial hull
// of [0, 1]: a round hull that leaves it from below or from above by
// more than validityTol clears the flag for good, one within the
// tolerance does not.
func TestRunStatsValidity(t *testing.T) {
	cases := []struct {
		lo, hi float64
		want   bool
	}{
		{0.25, 0.75, true},
		{0, 1, true},
		{-validityTol / 2, 1 + validityTol/2, true},
		{-0.5, 0.5, false},
		{-2 * validityTol, 1, false},
		{0.5, 1.5, false},
		{0, 1 + 2*validityTol, false},
		{-0.5, 1.5, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("[%g,%g]", tc.lo, tc.hi), func(t *testing.T) {
			st := newRunStats(0, 1)
			st.observe(0.25, 0.75)
			st.observe(tc.lo, tc.hi)
			st.observe(0.5, 0.5)
			if st.valid != tc.want {
				t.Fatalf("valid = %v after a round hull of [%g, %g], want %v", st.valid, tc.lo, tc.hi, tc.want)
			}
			if got := st.summary("alg", nil).Validity; got != tc.want {
				t.Fatalf("summary Validity = %v, want %v", got, tc.want)
			}
		})
	}
}
