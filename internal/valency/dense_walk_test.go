package valency_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// TestLowerBoundRunsDenseMatchesAgents plays every lower-bound execution
// for 12 rounds through its adversary twice, on a dense-capable
// configuration (the dense walk) and under core.AgentsOnly (the Agent
// walk), each on a fresh engine, and requires the same graphs, every
// greedy successor interval and the final outputs equal bit for bit, and
// equal cache accounting: the dense walk steps, keys and settles exactly
// the nodes the Agent walk does.
func TestLowerBoundRunsDenseMatchesAgents(t *testing.T) {
	const rounds = 12
	rng := rand.New(rand.NewSource(2))
	for _, r := range lowerBoundRuns() {
		t.Run(r.name, func(t *testing.T) {
			inputs := freshInputs(rng, r.m.N())
			p := valency.DefaultParams(r.depth, r.alg.Convex())
			engD, engA := valency.NewEngine(r.m, p), valency.NewEngine(r.m, p)
			dense, denseDecisions := r.play(t, engD, r.alg, inputs, rounds)
			agents, agentDecisions := r.play(t, engA, core.AgentsOnly(r.alg), inputs, rounds)

			for i := range agents.Graphs {
				if !dense.Graphs[i].Equal(agents.Graphs[i]) {
					t.Fatalf("round %d: dense walk played %v, Agent walk %v", i+1, dense.Graphs[i], agents.Graphs[i])
				}
			}
			if len(denseDecisions) != len(agentDecisions) {
				t.Fatalf("%d dense decisions, %d Agent decisions", len(denseDecisions), len(agentDecisions))
			}
			for i, d := range denseDecisions {
				a := agentDecisions[i]
				if d.Round != a.Round || d.Chosen != a.Chosen || !sameBitsAll(d.Inner, a.Inner) {
					t.Fatalf("decision %d: dense %+v, Agent %+v", i, d, a)
				}
			}
			for i, y := range dense.Outputs[rounds] {
				if math.Float64bits(y) != math.Float64bits(agents.Outputs[rounds][i]) {
					t.Fatalf("final outputs differ: dense %v, Agent %v", dense.Outputs[rounds], agents.Outputs[rounds])
				}
			}
			if sD, sA := engD.Stats(), engA.Stats(); sD != sA {
				t.Fatalf("cache accounting differs:\ndense  %+v\nagents %+v", sD, sA)
			}
		})
	}
}

// TestDenseQueriesStepNoAgents pins that a dense-capable query steps no
// Agent below its root: the root is bridged into flat state once, and
// every node below it is stepped, fingerprinted, read and settled on the
// dense path. The algorithm is Midpoint with agents that panic when
// delivered a round, so any Config step in a query fails the test; the
// answers must equal plain Midpoint's.
func TestDenseQueriesStepNoAgents(t *testing.T) {
	for _, m := range []*model.Model{model.DeafModel(graph.Complete(3)), noSelfRootModel()} {
		p := valency.DefaultParams(3, true)
		inputs := []float64{0, 1, 0.25}
		c := core.NewConfig(noAgentSteps{}, inputs)
		want := core.NewConfig(algorithms.Midpoint{}, inputs)
		eng, ref := valency.NewEngine(m, p), valency.NewEngine(m, p)
		if got, w := must(eng.Inner(bg, c)), must(ref.Inner(bg, want)); !sameBits(got, w) {
			t.Fatalf("%v: Inner %v, Midpoint's %v", m, got, w)
		}
		if got, w := must(eng.Outer(bg, c)), must(ref.Outer(bg, want)); !sameBits(got, w) {
			t.Fatalf("%v: Outer %v, Midpoint's %v", m, got, w)
		}
		if got, w := must(eng.SuccessorInners(bg, c)), must(ref.SuccessorInners(bg, want)); !sameBitsAll(got, w) {
			t.Fatalf("%v: SuccessorInners %v, Midpoint's %v", m, got, w)
		}
		for k := 0; k < m.Size(); k++ {
			got, gotOK := eng.LimitOfConstant(c, k)
			w, wOK := ref.LimitOfConstant(want, k)
			if gotOK != wOK || math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%v: limit under graph %d (%v, %v), Midpoint's (%v, %v)", m, k, got, gotOK, w, wOK)
			}
		}
		got, w := eng.SuccessorValueDiameters(c), ref.SuccessorValueDiameters(want)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(w[k]) {
				t.Fatalf("%v: SuccessorValueDiameters %v, Midpoint's %v", m, got, w)
			}
		}
	}
}

// noAgentSteps is Midpoint, dense stepper and all, with agents that
// bridge into dense state but panic when stepped.
type noAgentSteps struct{ algorithms.Midpoint }

func (noAgentSteps) NewAgent(id, n int, initial float64) core.Agent {
	return noStepAgent{algorithms.Midpoint{}.NewAgent(id, n, initial)}
}

type noStepAgent struct{ core.Agent }

func (noStepAgent) Deliver(int, []core.Message) {
	panic("valency: a dense-capable query stepped an Agent")
}

func (a noStepAgent) WriteDense(st *core.DenseState, i int) bool {
	return a.Agent.(core.DenseStateWriter).WriteDense(st, i)
}
