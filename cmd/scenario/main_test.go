package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/consensus"
	"repro/consensus/scenario"
	"repro/internal/core"
)

func TestListAndErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"partitionheal", "churn", "eventuallyrooted", "frommodel", "trace", "repeat", "concat", "interleave"} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("list missing %q", name)
		}
	}
	if err := run(nil, &sb); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"bogus"}, &sb); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"gen", "-scenario", "eventuallyrooted:4,1"}, &sb); err == nil {
		t.Error("gen without -o accepted")
	}
	if err := run([]string{"inspect"}, &sb); err == nil {
		t.Error("inspect without a source accepted")
	}
}

func TestGenInspectCertify(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "part.trace")
	var sb strings.Builder
	if err := run([]string{"gen", "-scenario", "partitionheal:6,2,4", "-o", trace}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(trace); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	if err := run([]string{"inspect", "-in", trace, "-graphs"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"agents:          6", "prefix rounds:   4", "loop rounds:     1", "fingerprint:", "round   5 (loop)"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("inspect missing %q:\n%s", frag, sb.String())
		}
	}

	sb.Reset()
	if err := run([]string{"certify", "-in", trace}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"rooted every round:      no (first at round 1)", "rooted window:           5"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("certify missing %q:\n%s", frag, sb.String())
		}
	}
}

// TestRecordReplayBackendsAgree records a greedy-adversary run, replays
// its trace with per-round fingerprints, and steps a dense runner and an
// AgentsOnly configuration over the recorded graphs in lockstep: both
// must give the same per-round fingerprints, and so must the replay.
func TestRecordReplayBackendsAgree(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "greedy.trace")
	var sb strings.Builder
	if err := run([]string{"record", "-model", "psi:4", "-adversary", "greedy",
		"-rounds", "6", "-o", trace}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "recorded 6 rounds") {
		t.Fatalf("record output:\n%s", sb.String())
	}
	var out strings.Builder
	if err := run([]string{"replay", "-in", trace, "-algorithm", "midpoint",
		"-rounds", "6", "-fingerprints"}, &out); err != nil {
		t.Fatal(err)
	}
	replayed := strings.Split(strings.TrimSpace(out.String()), "\n")

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := consensus.Algorithms.New("midpoint", sch.N())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := core.AsDense(alg); !ok {
		t.Fatal("midpoint must be dense-capable")
	}
	inputs := consensus.SpreadInputs(sch.N())
	dense := newFingerprintStepper(alg, inputs, sch)
	agents := newFingerprintStepper(core.AgentsOnly(alg), inputs, sch)
	for round := 0; round <= 6; round++ {
		fpD, fpA := dense(round), agents(round)
		if fpD != fpA || fpA == "n/a" {
			t.Fatalf("round %d: dense fingerprint %s, agents %s", round, fpD, fpA)
		}
		// Line 0 is the header; round r is on line r+1.
		if want := "fp " + fpA; !strings.HasSuffix(replayed[round+1], want) {
			t.Fatalf("round %d: replay printed %q, want suffix %q", round, replayed[round+1], want)
		}
	}
}

func TestReplayScenarioSpecDirectly(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"replay", "-scenario", "churn:8,1,3,2,3", "-algorithm", "mean"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "replaying mean") || !strings.Contains(sb.String(), "round   6") {
		t.Fatalf("replay output:\n%s", sb.String())
	}
}
