package algorithms

import (
	"fmt"

	"repro/internal/core"
)

// FloodRoot is an exact consensus algorithm for network models whose
// graphs all share a designated root agent: every agent forwards the
// root's initial value as soon as it has (transitively) heard it, and
// adopts it as its output. Because the root is a root of every round's
// graph, the informed set grows by at least one agent per round (take any
// uninformed agent j and a root-to-j path: its first edge leaving the
// informed set informs somebody), so after at most n-1 rounds every
// output equals the root's initial value exactly.
//
// This realizes the "contraction rate 0" entry of Table 1 for solvable
// models: the paper reduces it to exact consensus before Definition 22;
// common-root models are the canonical solvable case (every beta-class
// shares the root, so Theorem 19 applies).
type FloodRoot struct {
	// Root is the designated common root agent.
	Root int
}

// Name implements core.Algorithm.
func (f FloodRoot) Name() string { return fmt.Sprintf("flood-root(%d)", f.Root) }

// Convex implements core.Algorithm: outputs are always either the agent's
// own initial value or the root's initial value — both received values.
func (FloodRoot) Convex() bool { return true }

// NewAgent implements core.Algorithm. It panics when Root is not an agent.
func (f FloodRoot) NewAgent(id, n int, initial float64) core.Agent {
	if f.Root < 0 || f.Root >= n {
		panic(fmt.Sprintf("algorithms: FloodRoot root %d out of range [0,%d)", f.Root, n))
	}
	a := &floodRootAgent{y: initial}
	if id == f.Root {
		a.informed = true
		a.rootValue = initial
	}
	return a
}

type floodRootAgent struct {
	y         float64
	informed  bool
	rootValue float64
}

func (a *floodRootAgent) Broadcast(int) core.Message {
	flag := 0.0
	if a.informed {
		flag = 1
	}
	return core.Message{Value: a.y, Aux: []float64{flag, a.rootValue}}
}

func (a *floodRootAgent) Deliver(_ int, msgs []core.Message) {
	if a.informed {
		return
	}
	for _, m := range msgs {
		if len(m.Aux) == 2 && m.Aux[0] == 1 {
			a.informed = true
			a.rootValue = m.Aux[1]
			a.y = m.Aux[1]
			return
		}
	}
}

func (a *floodRootAgent) Output() float64   { return a.y }
func (a *floodRootAgent) Clone() core.Agent { cp := *a; return &cp }
