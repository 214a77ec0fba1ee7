// Package algorithms implements the asymptotic consensus algorithms whose
// contraction rates the paper's lower bounds are matched against:
//
//   - TwoThirds — Algorithm 1 of the paper: the two-agent convex
//     combination algorithm with contraction rate exactly 1/3 in the model
//     {H0, H1, H2}, matching the Theorem 1 lower bound.
//   - Midpoint — Algorithm 2 of the paper (Charron-Bost et al.,
//     ICALP'16): y_i <- (min received + max received)/2, contraction rate
//     1/2 in non-split models, matching the Theorem 2 lower bound.
//   - AmortizedMidpoint — the amortized variant for rooted models:
//     phases of n-1 rounds during which agents flood their running
//     min/max interval, then set y to the midpoint; contraction
//     (1/2)^(1/(n-1)) per round, asymptotically matching Theorem 3.
//   - Mean — plain averaging of received values, the folklore convex
//     combination algorithm (contraction 1 - 1/n at best in non-split
//     models, cf. Cao, Spielman, Morse 2005).
//   - SelfWeighted — y_i <- a*y_i + (1-a)*mean(others); the classical
//     consensus iteration with a tunable self-confidence parameter.
//   - FlowSum — the introduction's example of a non-convex algorithm:
//     each agent sends an equal fraction of its value to its
//     out-neighbors and sets its value to the sum of received fractions.
//     It conserves the total mass and solves asymptotic consensus on a
//     fixed strongly-connected aperiodic graph while violating the convex
//     combination property.
//
// All algorithms are deterministic and their agents clonable, as the core
// contract requires. All but FlowSum also implement core.DenseAlgorithm
// (dense.go, dense_batch.go); FlowSum runs on the Agent path only.
package algorithms

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
)

// Midpoint is Algorithm 2 of the paper.
type Midpoint struct{}

// Name implements core.Algorithm.
func (Midpoint) Name() string { return "midpoint" }

// Convex implements core.Algorithm.
func (Midpoint) Convex() bool { return true }

// NewAgent implements core.Algorithm.
func (Midpoint) NewAgent(id, n int, initial float64) core.Agent {
	return &midpointAgent{y: initial}
}

type midpointAgent struct{ y float64 }

func (a *midpointAgent) Broadcast(int) core.Message { return core.Message{Value: a.y} }

func (a *midpointAgent) Deliver(_ int, msgs []core.Message) {
	lo, hi := msgs[0].Value, msgs[0].Value
	for _, m := range msgs[1:] {
		lo = math.Min(lo, m.Value)
		hi = math.Max(hi, m.Value)
	}
	a.y = (lo + hi) / 2
}

func (a *midpointAgent) Output() float64   { return a.y }
func (a *midpointAgent) Clone() core.Agent { cp := *a; return &cp }

// TwoThirds is Algorithm 1 of the paper, defined for exactly two agents:
// on hearing the other agent, y_i <- y_i/3 + 2*y_j/3; otherwise y_i is
// kept. Its contraction rate in {H0, H1, H2} is exactly 1/3.
type TwoThirds struct{}

// Name implements core.Algorithm.
func (TwoThirds) Name() string { return "two-thirds" }

// Convex implements core.Algorithm.
func (TwoThirds) Convex() bool { return true }

// NewAgent implements core.Algorithm. It panics unless n == 2.
func (TwoThirds) NewAgent(id, n int, initial float64) core.Agent {
	if n != 2 {
		panic(fmt.Sprintf("algorithms: TwoThirds requires n = 2, got %d", n))
	}
	return &twoThirdsAgent{id: id, y: initial}
}

type twoThirdsAgent struct {
	id int
	y  float64
}

func (a *twoThirdsAgent) Broadcast(int) core.Message { return core.Message{Value: a.y} }

func (a *twoThirdsAgent) Deliver(_ int, msgs []core.Message) {
	for _, m := range msgs {
		if m.From != a.id {
			a.y = a.y/3 + 2*m.Value/3
			return
		}
	}
}

func (a *twoThirdsAgent) Output() float64   { return a.y }
func (a *twoThirdsAgent) Clone() core.Agent { cp := *a; return &cp }

// Mean sets y_i to the arithmetic mean of the received values.
type Mean struct{}

// Name implements core.Algorithm.
func (Mean) Name() string { return "mean" }

// Convex implements core.Algorithm.
func (Mean) Convex() bool { return true }

// NewAgent implements core.Algorithm.
func (Mean) NewAgent(id, n int, initial float64) core.Agent {
	return &meanAgent{y: initial}
}

type meanAgent struct{ y float64 }

func (a *meanAgent) Broadcast(int) core.Message { return core.Message{Value: a.y} }

func (a *meanAgent) Deliver(_ int, msgs []core.Message) {
	sum := 0.0
	for _, m := range msgs {
		sum += m.Value
	}
	a.y = sum / float64(len(msgs))
}

func (a *meanAgent) Output() float64   { return a.y }
func (a *meanAgent) Clone() core.Agent { cp := *a; return &cp }

// SelfWeighted sets y_i <- Alpha*y_i + (1-Alpha)*mean(received others);
// with no other message received, y_i is kept. Alpha must lie in [0, 1].
type SelfWeighted struct {
	// Alpha is the weight on the agent's own value.
	Alpha float64
}

// Name implements core.Algorithm.
func (s SelfWeighted) Name() string { return fmt.Sprintf("self-weighted(%.2f)", s.Alpha) }

// Convex implements core.Algorithm.
func (SelfWeighted) Convex() bool { return true }

// NewAgent implements core.Algorithm. It panics for Alpha outside [0, 1].
func (s SelfWeighted) NewAgent(id, n int, initial float64) core.Agent {
	if s.Alpha < 0 || s.Alpha > 1 {
		panic(fmt.Sprintf("algorithms: SelfWeighted alpha %v outside [0,1]", s.Alpha))
	}
	return &selfWeightedAgent{id: id, alpha: s.Alpha, y: initial}
}

type selfWeightedAgent struct {
	id    int
	alpha float64
	y     float64
}

func (a *selfWeightedAgent) Broadcast(int) core.Message { return core.Message{Value: a.y} }

func (a *selfWeightedAgent) Deliver(_ int, msgs []core.Message) {
	sum, count := 0.0, 0
	for _, m := range msgs {
		if m.From != a.id {
			sum += m.Value
			count++
		}
	}
	if count == 0 {
		return
	}
	a.y = a.alpha*a.y + (1-a.alpha)*sum/float64(count)
}

func (a *selfWeightedAgent) Output() float64   { return a.y }
func (a *selfWeightedAgent) Clone() core.Agent { cp := *a; return &cp }

// AmortizedMidpoint is the amortized midpoint algorithm for rooted network
// models (Charron-Bost et al., ICALP'16). Rounds are grouped into phases
// of n-1 rounds. During a phase every agent floods the smallest and
// largest values it has seen since the phase started; at the end of the
// phase it sets y to the midpoint of its interval and resets the interval
// to {y}. Because any product of n-1 rooted graphs is non-split, the
// intervals of any two agents intersect at the end of each phase, so the
// global range halves per phase: contraction (1/2)^(1/(n-1)) per round.
type AmortizedMidpoint struct{}

// Name implements core.Algorithm.
func (AmortizedMidpoint) Name() string { return "amortized-midpoint" }

// Convex implements core.Algorithm. The phase-end update is a convex
// combination of values received during the phase; within a phase the
// output is simply kept, so outputs never leave the running convex hull.
func (AmortizedMidpoint) Convex() bool { return true }

// NewAgent implements core.Algorithm.
func (AmortizedMidpoint) NewAgent(id, n int, initial float64) core.Agent {
	phase := n - 1
	if phase < 1 {
		phase = 1
	}
	return &amortizedAgent{phaseLen: phase, y: initial, lo: initial, hi: initial}
}

type amortizedAgent struct {
	phaseLen int
	y        float64
	lo, hi   float64
}

func (a *amortizedAgent) Broadcast(int) core.Message {
	return core.Message{Value: a.y, Aux: []float64{a.lo, a.hi}}
}

func (a *amortizedAgent) Deliver(round int, msgs []core.Message) {
	for _, m := range msgs {
		if len(m.Aux) == 2 {
			a.lo = math.Min(a.lo, m.Aux[0])
			a.hi = math.Max(a.hi, m.Aux[1])
		} else {
			a.lo = math.Min(a.lo, m.Value)
			a.hi = math.Max(a.hi, m.Value)
		}
	}
	if round%a.phaseLen == 0 {
		a.y = (a.lo + a.hi) / 2
		a.lo, a.hi = a.y, a.y
	}
}

func (a *amortizedAgent) Output() float64   { return a.y }
func (a *amortizedAgent) Clone() core.Agent { cp := *a; return &cp }

// FlowSum is the non-convex algorithm sketched in the paper's
// introduction: on a fixed communication graph, each agent sends y_i/d_i
// to each of its d_i out-neighbors (self included) and replaces y_i by the
// sum of the received fractions. The total mass is conserved, and on a
// fixed strongly-connected aperiodic graph the values converge to a
// common limit that may lie outside the convex hull of any single round's
// received values — hence Convex() is false.
//
// The out-degrees are fixed at construction because, in a message-passing
// round, an agent cannot know its current out-degree; the algorithm is
// only an asymptotic consensus algorithm for the fixed graph it was built
// for, exactly as in the paper's discussion.
type FlowSum struct {
	// OutDegrees[i] is the fixed out-degree (including the self-loop) that
	// agent i divides its value by.
	OutDegrees []int
}

// NewFlowSum builds a FlowSum for the fixed graph's out-degrees.
func NewFlowSum(outDegrees []int) FlowSum {
	cp := make([]int, len(outDegrees))
	copy(cp, outDegrees)
	return FlowSum{OutDegrees: cp}
}

// Name implements core.Algorithm.
func (FlowSum) Name() string { return "flow-sum" }

// Convex implements core.Algorithm.
func (FlowSum) Convex() bool { return false }

// NewAgent implements core.Algorithm. It panics if the out-degree table
// does not cover agent id or lists a non-positive degree.
func (f FlowSum) NewAgent(id, n int, initial float64) core.Agent {
	if id >= len(f.OutDegrees) || f.OutDegrees[id] < 1 {
		panic(fmt.Sprintf("algorithms: FlowSum missing out-degree for agent %d", id))
	}
	return &flowSumAgent{deg: f.OutDegrees[id], y: initial}
}

type flowSumAgent struct {
	deg int
	y   float64
}

func (a *flowSumAgent) Broadcast(int) core.Message {
	return core.Message{Value: a.y / float64(a.deg)}
}

func (a *flowSumAgent) Deliver(_ int, msgs []core.Message) {
	sum := 0.0
	for _, m := range msgs {
		sum += m.Value
	}
	a.y = sum
}

func (a *flowSumAgent) Output() float64   { return a.y }
func (a *flowSumAgent) Clone() core.Agent { cp := *a; return &cp }

// FlowSumFor returns a FlowSum configured for the out-degrees of the
// fixed graph g.
func FlowSumFor(g graph.Graph) FlowSum {
	degs := make([]int, g.N())
	for i := range degs {
		degs[i] = g.OutDegree(i)
	}
	return FlowSum{OutDegrees: degs}
}
