package algorithms_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
)

// These tests pin down the Message.Aux aliasing contract ("receivers must
// treat Aux as read-only; senders must not retain it"): the two
// algorithms that flood auxiliary state through Aux — the amortized
// midpoint (its running interval) and flood-root (the informed flag and
// root value) — must copy what they need out of a delivered Aux slice,
// so a harness (or hostile peer) that retains every Aux slice and
// scribbles over it later cannot corrupt them or any fork of them.

func auxAlgorithms() []core.Algorithm {
	return []core.Algorithm{algorithms.AmortizedMidpoint{}, algorithms.FloodRoot{Root: 1}}
}

// stepRetaining plays one round by hand, returning the delivered messages
// so the caller can mutate their Aux slices after the fact.
func stepRetaining(agents []core.Agent, round int, g graph.Graph) []core.Message {
	n := len(agents)
	msgs := make([]core.Message, n)
	for i, a := range agents {
		msgs[i] = a.Broadcast(round)
		msgs[i].From = i
	}
	for j, a := range agents {
		var inbox []core.Message
		for i := 0; i < n; i++ {
			if g.HasEdge(i, j) {
				inbox = append(inbox, msgs[i])
			}
		}
		a.Deliver(round, inbox)
	}
	return msgs
}

// TestDeliveredAuxIsNotRetained runs the Aux-flooding algorithms with a
// harness that keeps every delivered Aux slice and overwrites it with
// NaNs after each round. If any agent retained a delivered (or sent) Aux
// slice instead of copying its contents, the scribbles would leak into
// its state and diverge from the clean reference execution.
func TestDeliveredAuxIsNotRetained(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, rounds = 5, 12
	inputs := []float64{0, 1, 0.25, 0.75, 0.5}
	for _, alg := range auxAlgorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			ref := core.NewConfig(alg, inputs)
			agents := make([]core.Agent, n)
			for i := range agents {
				agents[i] = alg.NewAgent(i, n, inputs[i])
			}
			for round := 1; round <= rounds; round++ {
				g := graph.Random(rng, n, 0.6)
				ref = ref.Step(g)
				msgs := stepRetaining(agents, round, g)
				for i := range msgs {
					for k := range msgs[i].Aux {
						msgs[i].Aux[k] = math.NaN()
					}
				}
				for i, a := range agents {
					if math.Float64bits(a.Output()) != math.Float64bits(ref.Output(i)) {
						t.Fatalf("round %d agent %d: state corrupted by scribbling retained Aux slices", round, i)
					}
				}
			}
		})
	}
}

// TestAuxScribbleCannotCorruptSiblingFork forks an execution mid-run and
// checks that mutating the Aux slices delivered on one branch cannot
// corrupt the sibling fork: clones must share no Aux-backed storage with
// their originals.
func TestAuxScribbleCannotCorruptSiblingFork(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, prefix, suffix = 5, 4, 8
	inputs := []float64{0, 1, 0.25, 0.75, 0.5}
	for _, alg := range auxAlgorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			agents := make([]core.Agent, n)
			for i := range agents {
				agents[i] = alg.NewAgent(i, n, inputs[i])
			}
			prefixGraphs := make([]graph.Graph, prefix)
			suffixGraphs := make([]graph.Graph, suffix)
			for r := range prefixGraphs {
				prefixGraphs[r] = graph.Random(rng, n, 0.6)
			}
			for r := range suffixGraphs {
				suffixGraphs[r] = graph.Random(rng, n, 0.6)
			}
			var retained [][]core.Message
			for round := 1; round <= prefix; round++ {
				retained = append(retained, stepRetaining(agents, round, prefixGraphs[round-1]))
			}
			// Fork a sibling from the parent state, then scribble every Aux
			// slice the parent ever received and keep stepping the parent on a
			// divergent schedule: if any clone shared Aux-backed storage with
			// its original, the fork would see the corruption.
			fork := make([]core.Agent, n)
			for i, a := range agents {
				fork[i] = a.Clone()
			}
			for _, msgs := range retained {
				for i := range msgs {
					for k := range msgs[i].Aux {
						msgs[i].Aux[k] = math.Inf(1)
					}
				}
			}
			for round := prefix + 1; round <= prefix+suffix; round++ {
				stepRetaining(agents, round, graph.Complete(n))
				stepRetaining(fork, round, suffixGraphs[round-prefix-1])
			}
			// Ground truth: a never-scribbled execution of the fork's schedule.
			ref := core.NewConfig(alg, inputs)
			for _, g := range prefixGraphs {
				ref = ref.Step(g)
			}
			for _, g := range suffixGraphs {
				ref = ref.Step(g)
			}
			for i := range fork {
				if math.Float64bits(fork[i].Output()) != math.Float64bits(ref.Output(i)) {
					t.Fatalf("agent %d: sibling fork corrupted through a shared Aux slice", i)
				}
			}
		})
	}
}
