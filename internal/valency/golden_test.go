package valency_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/consensus"
	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/model"
	"repro/internal/valency"
)

// goldenPath is the committed full-precision record of the lower-bound
// executions; TestLowerBoundGolden renders it.
var goldenPath = filepath.Join("testdata", "lowerbound.golden")

// TestLowerBoundGolden plays every lower-bound execution (12 rounds) and
// the settle-heavy nonsplit:3 midpoint greedy run (depth 3, 8 rounds),
// each from SpreadInputs and from two seeded affine images of it, on a
// fresh engine and the dense walk (TestLowerBoundRunsDenseMatchesAgents
// pins the Agent walk to it), and requires the rendering to equal the
// committed golden file byte for byte. Per round the file holds the
// graph played (its model index), every greedy successor's Inner
// endpoints and the outputs, each float in hexadecimal (strconv 'x'
// format), so every bit is compared. The file is regenerated by hand, as
// the experiment goldens are: write renderLowerBoundGolden's output over
// it, and say in CHANGES.md that it moved and why.
func TestLowerBoundGolden(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := renderLowerBoundGolden(t)
	if got == string(golden) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(golden), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s:%d differs:\n got  %s\n want %s", goldenPath, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s has %d lines, the rendering %d", goldenPath, len(wantLines), len(gotLines))
}

// renderLowerBoundGolden plays the golden executions and renders them.
func renderLowerBoundGolden(t *testing.T) string {
	nonsplit3, err := model.AllNonSplit(3)
	if err != nil {
		t.Fatal(err)
	}
	runs := append(lowerBoundRuns(), lowerBoundRun{"nonsplit3/midpoint", nonsplit3, algorithms.Midpoint{}, 3, false})
	var b strings.Builder
	rng := rand.New(rand.NewSource(26))
	for _, r := range runs {
		rounds := 12
		if r.m == nonsplit3 {
			rounds = 8
		}
		for image := 0; image < 3; image++ {
			inputs := consensus.SpreadInputs(r.m.N())
			if image > 0 {
				inputs = freshInputs(rng, r.m.N())
			}
			eng := valency.NewEngine(r.m, valency.DefaultParams(r.depth, r.alg.Convex()))
			tr, decisions := r.play(t, eng, r.alg, inputs, rounds)
			fmt.Fprintf(&b, "run %s depth %d rounds %d image %d\n", r.name, r.depth, rounds, image)
			fmt.Fprintf(&b, "round 0 outputs %s\n", hexFloats(tr.Outputs[0]))
			for i, g := range tr.Graphs {
				fmt.Fprintf(&b, "round %d graph %d outputs %s\n", i+1, r.m.Index(g), hexFloats(tr.Outputs[i+1]))
				if r.block {
					continue
				}
				d := decisionAt(t, decisions, i+1)
				for k, iv := range d.Inner {
					fmt.Fprintf(&b, "  successor %d inner %s %s\n", k, hexFloat(iv.Lo), hexFloat(iv.Hi))
				}
			}
		}
	}
	return b.String()
}

// decisionAt returns the greedy decision of the given round.
func decisionAt(t *testing.T, decisions []adversary.Decision, round int) adversary.Decision {
	t.Helper()
	if round > len(decisions) || decisions[round-1].Round != round {
		t.Fatalf("no decision recorded for round %d", round)
	}
	return decisions[round-1]
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func hexFloats(vs []float64) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = hexFloat(v)
	}
	return strings.Join(s, " ")
}
