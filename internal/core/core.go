// Package core implements the round-based dynamic-network execution model
// of Section 2 of Függer, Nowak, Schwarz, "Tight Bounds for Asymptotic and
// Approximate Consensus" (PODC 2018).
//
// Computation proceeds in communication-closed rounds: in every round each
// agent broadcasts a message, receives the messages of its in-neighbors in
// that round's communication graph (always including its own message, per
// the mandatory self-loop), and deterministically updates its state.
//
// Agents are deterministic, clonable state machines. Clonability is part
// of the contract because the valency estimator and the lower-bound
// adversaries fork configurations mid-execution to explore the execution
// tree, exactly as the paper's proofs branch over successor
// configurations.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
)

// appendInbox appends the messages of node j's in-neighbors in g to inbox
// in ascending sender order — the order every Deliver contract (and the
// dense steppers' bit-identity contract) is pinned to. The row is iterated
// word by word, so the walk is popcount-driven at any graph width.
func appendInbox(inbox, msgs []Message, g graph.Graph, j int) []Message {
	for wi, m := range g.InRow(j) {
		base := wi * 64
		for ; m != 0; m &= m - 1 {
			inbox = append(inbox, msgs[base+bits.TrailingZeros64(m)])
		}
	}
	return inbox
}

// Message is what an agent broadcasts in a round. Value carries the
// consensus variable y_i; Aux optionally carries extra algorithm state
// (e.g. the running min/max interval of the amortized midpoint algorithm).
// Receivers must treat Aux as read-only; senders must not retain it.
type Message struct {
	From  int
	Value float64
	Aux   []float64
}

// Agent is the deterministic per-agent state machine of an asymptotic
// consensus algorithm. Round numbers start at 1, matching the paper;
// Output before any round reflects the initial value.
type Agent interface {
	// Broadcast returns the message the agent sends in the given round.
	// It must not mutate agent state.
	Broadcast(round int) Message
	// Deliver hands the agent the messages it hears in the given round.
	// The slice always contains the agent's own message (self-loop). The
	// agent must not retain the slice.
	Deliver(round int, msgs []Message)
	// Output returns the current value of the consensus variable y_i.
	Output() float64
	// Clone returns an independent deep copy of the agent.
	Clone() Agent
}

// Algorithm creates agents and describes algorithm-level properties.
type Algorithm interface {
	// Name identifies the algorithm in tables and traces.
	Name() string
	// NewAgent creates the agent with the given identity, system size, and
	// initial value.
	NewAgent(id, n int, initial float64) Agent
	// Convex reports whether the algorithm is a convex combination
	// algorithm: every update keeps y_i inside the convex hull of the
	// values received in that round. Convexity is what licenses the outer
	// valency bound used by the estimator (see internal/valency), and by
	// Theorem 2 of the paper it makes the consensus function continuous.
	Convex() bool
}

// StateCopier is an optional Agent capability: agents that can adopt the
// state of another agent in place implement it so that configuration
// scratch buffers can be refilled without allocating (see StepInto).
type StateCopier interface {
	// CopyStateFrom overwrites the receiver's state with src's and reports
	// whether it succeeded; it must return false (leaving the receiver in
	// any valid state) when src has a different concrete type.
	CopyStateFrom(src Agent) bool
}

// Config is a configuration: the collection of all agent states after some
// round. Step produces successor configurations without mutating the
// receiver, mirroring the paper's G.C notation.
type Config struct {
	n      int
	round  int
	alg    Algorithm // the algorithm the agents run; nil for hand-built configs
	agents []Agent

	// Reusable scratch for StepInto/StepInPlace; never part of the
	// configuration's identity and never copied by Clone.
	msgScratch   []Message
	inboxScratch []Message
}

// NewConfig returns the initial configuration of alg on the given inputs
// (one per agent).
func NewConfig(alg Algorithm, inputs []float64) *Config {
	n := len(inputs)
	if n < 1 || n > graph.MaxNodes {
		panic(fmt.Sprintf("core: invalid agent count %d", n))
	}
	agents := make([]Agent, n)
	for i, v := range inputs {
		agents[i] = alg.NewAgent(i, n, v)
	}
	return &Config{n: n, alg: alg, agents: agents}
}

// Algorithm returns the algorithm the configuration was created for, or
// nil for hand-assembled configurations. The dense execution path uses
// it to locate the flat-state stepper matching the agents.
func (c *Config) Algorithm() Algorithm { return c.alg }

// N returns the number of agents.
func (c *Config) N() int { return c.n }

// Round returns the number of completed rounds.
func (c *Config) Round() int { return c.round }

// Output returns agent i's current value.
func (c *Config) Output(i int) float64 { return c.agents[i].Output() }

// AgentAt exposes agent i for inspection (e.g. reading decision state of
// wrapper algorithms). Callers must not mutate the agent; fork the
// configuration with Clone first if mutation is needed.
func (c *Config) AgentAt(i int) Agent { return c.agents[i] }

// Outputs returns a fresh slice of all agents' current values.
func (c *Config) Outputs() []float64 {
	out := make([]float64, c.n)
	for i, a := range c.agents {
		out[i] = a.Output()
	}
	return out
}

// Hull returns the convex hull [lo, hi] of the current values without
// allocating.
func (c *Config) Hull() (lo, hi float64) {
	if c.n == 0 {
		return 0, 0
	}
	lo = c.agents[0].Output()
	hi = lo
	for _, a := range c.agents[1:] {
		v := a.Output()
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// Diameter returns the diameter Δ(y) of the current values. It is
// allocation-free: the settle loops of the valency estimator call it once
// per explored round.
func (c *Config) Diameter() float64 {
	lo, hi := c.Hull()
	return hi - lo
}

// Clone returns an independent deep copy of the configuration.
func (c *Config) Clone() *Config {
	agents := make([]Agent, c.n)
	for i, a := range c.agents {
		agents[i] = a.Clone()
	}
	return &Config{n: c.n, round: c.round, alg: c.alg, agents: agents}
}

// Step applies one round with communication graph g and returns the
// successor configuration G.C. The receiver is unchanged.
func (c *Config) Step(g graph.Graph) *Config {
	if g.N() != c.n {
		panic(fmt.Sprintf("core: graph on %d nodes applied to %d agents", g.N(), c.n))
	}
	round := c.round + 1
	msgs := make([]Message, c.n)
	for i, a := range c.agents {
		msgs[i] = a.Broadcast(round)
		msgs[i].From = i
	}
	next := make([]Agent, c.n)
	inbox := make([]Message, 0, c.n)
	for j := 0; j < c.n; j++ {
		next[j] = c.agents[j].Clone()
		inbox = appendInbox(inbox[:0], msgs, g, j)
		next[j].Deliver(round, inbox)
	}
	return &Config{n: c.n, round: round, alg: c.alg, agents: next}
}

// StepInPlace applies one round with communication graph g by mutating
// the receiver's agents — no per-agent cloning. It is the fast path for
// long measurement runs (Run uses it on a private clone); callers that
// fork the execution tree must use Step instead.
func (c *Config) StepInPlace(g graph.Graph) {
	if g.N() != c.n {
		panic(fmt.Sprintf("core: graph on %d nodes applied to %d agents", g.N(), c.n))
	}
	c.round++
	msgs, inbox := c.scratch()
	for i, a := range c.agents {
		msgs[i] = a.Broadcast(c.round)
		msgs[i].From = i
	}
	for j, a := range c.agents {
		inbox = appendInbox(inbox[:0], msgs, g, j)
		a.Deliver(c.round, inbox)
	}
	c.inboxScratch = inbox[:0]
}

// scratch returns the receiver's reusable message and inbox buffers,
// growing them on first use.
func (c *Config) scratch() (msgs, inbox []Message) {
	if cap(c.msgScratch) < c.n {
		c.msgScratch = make([]Message, c.n)
	}
	if cap(c.inboxScratch) < c.n {
		c.inboxScratch = make([]Message, 0, c.n)
	}
	return c.msgScratch[:c.n], c.inboxScratch[:0]
}

// StepInto computes the successor configuration G.C into dst, the
// zero-allocation counterpart of Step for execution-tree walkers that own
// a scratch arena of Config values. The receiver is unchanged; dst is
// overwritten entirely. dst may be a zero &Config{} (its agent slots are
// then populated by cloning) or a previously used scratch configuration
// (its agents are refilled in place via StateCopier when the concrete
// types match, avoiding all allocation).
//
// dst must not alias c or share agents with it; use StepInPlace to advance
// a configuration in place. Concurrent StepInto calls from the same
// receiver into distinct destinations are safe: the receiver is only read.
func (c *Config) StepInto(dst *Config, g graph.Graph) {
	if g.N() != c.n {
		panic(fmt.Sprintf("core: graph on %d nodes applied to %d agents", g.N(), c.n))
	}
	if dst == c {
		panic("core: StepInto destination aliases the receiver; use StepInPlace")
	}
	round := c.round + 1
	dst.n = c.n
	dst.round = round
	dst.alg = c.alg
	if cap(dst.agents) < c.n {
		dst.agents = make([]Agent, c.n)
	}
	dst.agents = dst.agents[:c.n]
	msgs, inbox := dst.scratch()
	for i, a := range c.agents {
		msgs[i] = a.Broadcast(round)
		msgs[i].From = i
	}
	for j := 0; j < c.n; j++ {
		d := dst.agents[j]
		if d == nil {
			d = c.agents[j].Clone()
			dst.agents[j] = d
		} else if sc, ok := d.(StateCopier); !ok || !sc.CopyStateFrom(c.agents[j]) {
			d = c.agents[j].Clone()
			dst.agents[j] = d
		}
		inbox = appendInbox(inbox[:0], msgs, g, j)
		d.Deliver(round, inbox)
	}
	dst.inboxScratch = inbox[:0]
}

// StepAll applies the rounds of the given graph sequence in order and
// returns the resulting configuration. The receiver is unchanged; only one
// clone is made for the whole sequence.
func (c *Config) StepAll(gs []graph.Graph) *Config {
	if len(gs) == 0 {
		return c
	}
	cur := c.Clone()
	for _, g := range gs {
		cur.StepInPlace(g)
	}
	return cur
}

// IndistinguishableFor reports whether agent i has the same output in c
// and d. It is a practical proxy for the paper's ~_i relation restricted
// to observable state; exact state equality is algorithm-specific. Both
// configurations must have the same size.
func (c *Config) IndistinguishableFor(i int, d *Config) bool {
	return c.Output(i) == d.Output(i)
}

// Diameter returns max values minus min values (the 1-dimensional diameter
// of the value set); 0 for empty input.
func Diameter(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// Hull returns the convex hull [min, max] of the values.
func Hull(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		return 0, 0
	}
	lo, hi = values[0], values[0]
	for _, v := range values[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}
