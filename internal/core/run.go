package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/model"
)

// PatternSource produces the communication graph of each round. It is the
// interface both benign schedulers and lower-bound adversaries implement;
// an adversary may inspect the pre-round configuration, exactly like the
// execution-tree constructions in the paper's proofs.
type PatternSource interface {
	// Next returns the communication graph of the given round (1-based).
	// c is the configuration at the start of the round.
	Next(round int, c *Config) graph.Graph
}

// Oblivious is an optional PatternSource capability marking sources whose
// Next ignores the configuration argument (benign schedulers, in the
// terminology of the paper's upper bounds). Only oblivious sources can
// drive the dense path, which has no *Config to offer and passes nil;
// adaptive adversaries keep the Agent path.
type Oblivious interface {
	// ObliviousSource reports that Next never reads its Config argument.
	ObliviousSource() bool
}

// obliviousSource reports whether src may be driven with a nil Config.
func obliviousSource(src PatternSource) bool {
	o, ok := src.(Oblivious)
	return ok && o.ObliviousSource()
}

// IsOblivious reports whether src declares itself configuration-
// independent (see Oblivious); only such sources can drive the dense
// path.
func IsOblivious(src PatternSource) bool { return obliviousSource(src) }

// Fixed is a PatternSource that plays the same graph every round — the
// classical fixed-topology setting.
type Fixed struct{ G graph.Graph }

// Next implements PatternSource.
func (f Fixed) Next(int, *Config) graph.Graph { return f.G }

// ObliviousSource implements Oblivious.
func (Fixed) ObliviousSource() bool { return true }

// Cycle plays the given graphs in round-robin order.
type Cycle struct{ Graphs []graph.Graph }

// Next implements PatternSource.
func (c Cycle) Next(round int, _ *Config) graph.Graph {
	if len(c.Graphs) == 0 {
		panic("core: Cycle with no graphs")
	}
	return c.Graphs[(round-1)%len(c.Graphs)]
}

// ObliviousSource implements Oblivious.
func (Cycle) ObliviousSource() bool { return true }

// Sequence plays the given finite prefix and then repeats the final graph
// forever.
type Sequence struct{ Graphs []graph.Graph }

// Next implements PatternSource.
func (s Sequence) Next(round int, _ *Config) graph.Graph {
	if len(s.Graphs) == 0 {
		panic("core: Sequence with no graphs")
	}
	if round-1 < len(s.Graphs) {
		return s.Graphs[round-1]
	}
	return s.Graphs[len(s.Graphs)-1]
}

// ObliviousSource implements Oblivious.
func (Sequence) ObliviousSource() bool { return true }

// RandomFromModel draws a uniformly random member of a network model each
// round, using its own RNG for reproducibility.
type RandomFromModel struct {
	Model *model.Model
	Rng   *rand.Rand
}

// Next implements PatternSource.
func (r RandomFromModel) Next(int, *Config) graph.Graph {
	return r.Model.Graph(r.Rng.Intn(r.Model.Size()))
}

// ObliviousSource implements Oblivious.
func (RandomFromModel) ObliviousSource() bool { return true }

// Func adapts a function to a PatternSource.
type Func func(round int, c *Config) graph.Graph

// Next implements PatternSource.
func (f Func) Next(round int, c *Config) graph.Graph { return f(round, c) }

// ObliviousFunc adapts a configuration-independent function to a
// PatternSource that declares itself Oblivious, so it can drive the dense
// path (random schedulers drawing graphs from their own RNG, say).
type ObliviousFunc func(round int) graph.Graph

// Next implements PatternSource.
func (f ObliviousFunc) Next(round int, _ *Config) graph.Graph { return f(round) }

// ObliviousSource implements Oblivious.
func (ObliviousFunc) ObliviousSource() bool { return true }

// Trace records an execution: the initial values, the graph played and the
// value vector after every round.
type Trace struct {
	Algorithm string
	Inputs    []float64
	Graphs    []graph.Graph
	// Outputs[t] is the value vector after round t; Outputs[0] = Inputs.
	Outputs [][]float64
	// Final is the configuration after the last round.
	Final *Config
}

// Run executes alg from the given inputs for the given number of rounds,
// drawing graphs from src, and returns the trace. A dense-capable
// algorithm (AsDense) under an oblivious source runs on flat
// struct-of-arrays state, anything else on the Agent path; the result is
// bit-identical either way.
func Run(alg Algorithm, inputs []float64, src PatternSource, rounds int) *Trace {
	tr, _ := RunCtx(context.Background(), alg, inputs, src, rounds)
	return tr
}

// RunCtx is Run with cooperative cancellation: the round loop checks ctx
// between rounds and returns (nil, ctx.Err()) when the context is done.
// A context that can never be cancelled (nil Done channel, e.g.
// context.Background) adds no per-round work.
func RunCtx(ctx context.Context, alg Algorithm, inputs []float64, src PatternSource, rounds int) (*Trace, error) {
	if obliviousSource(src) {
		if d, ok := AsDense(alg); ok {
			return runDense(ctx, alg.Name(), NewDenseRunner(d, inputs), src, rounds)
		}
	}
	return runAgents(ctx, alg.Name(), NewConfig(alg, inputs), src, rounds)
}

// runAgents is the interface-based round loop — the reference path. It
// steps c in place; pattern sources observe the live configuration
// (read-only, per the PatternSource contract).
func runAgents(ctx context.Context, name string, c *Config, src PatternSource, rounds int) (*Trace, error) {
	if rounds < 0 {
		panic(fmt.Sprintf("core: negative round count %d", rounds))
	}
	tr := &Trace{
		Algorithm: name,
		Inputs:    c.Outputs(),
		Graphs:    make([]graph.Graph, 0, rounds),
		Outputs:   make([][]float64, 0, rounds+1),
	}
	tr.Outputs = append(tr.Outputs, c.Outputs())
	done := ctx.Done()
	for t := 1; t <= rounds; t++ {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		g := src.Next(c.round+1, c)
		c.StepInPlace(g)
		tr.Graphs = append(tr.Graphs, g)
		tr.Outputs = append(tr.Outputs, c.Outputs())
	}
	tr.Final = c
	return tr, nil
}

// runDense is the dense round loop. src must be oblivious: it is handed a
// nil configuration. The trace's Final configuration is materialized from
// the dense state after the last round.
func runDense(ctx context.Context, name string, r *DenseRunner, src PatternSource, rounds int) (*Trace, error) {
	if rounds < 0 {
		panic(fmt.Sprintf("core: negative round count %d", rounds))
	}
	tr := &Trace{
		Algorithm: name,
		Inputs:    r.Outputs(),
		Graphs:    make([]graph.Graph, 0, rounds),
		Outputs:   make([][]float64, 0, rounds+1),
	}
	tr.Outputs = append(tr.Outputs, r.Outputs())
	done := ctx.Done()
	for t := 1; t <= rounds; t++ {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		g := src.Next(r.Round()+1, nil)
		r.Step(g)
		tr.Graphs = append(tr.Graphs, g)
		tr.Outputs = append(tr.Outputs, r.Outputs())
	}
	tr.Final = r.Config()
	return tr, nil
}

// Rounds returns the number of executed rounds.
func (tr *Trace) Rounds() int { return len(tr.Graphs) }

// DiameterAt returns Δ(y(t)).
func (tr *Trace) DiameterAt(t int) float64 { return Diameter(tr.Outputs[t]) }

// Diameters returns Δ(y(t)) for t = 0..rounds.
func (tr *Trace) Diameters() []float64 {
	out := make([]float64, len(tr.Outputs))
	for t := range tr.Outputs {
		out[t] = tr.DiameterAt(t)
	}
	return out
}

// RoundRatios returns the per-round diameter contraction ratios
// Δ(y(t))/Δ(y(t-1)); rounds whose predecessor diameter is zero yield 0.
func (tr *Trace) RoundRatios() []float64 {
	d := tr.Diameters()
	out := make([]float64, 0, len(d)-1)
	for t := 1; t < len(d); t++ {
		if d[t-1] == 0 {
			out = append(out, 0)
		} else {
			out = append(out, d[t]/d[t-1])
		}
	}
	return out
}

// GeometricRate returns (Δ(y(T))/Δ(y(0)))^(1/T), the empirical per-round
// contraction factor of the whole run; 0 when the initial diameter is 0 or
// the final diameter reached 0.
func (tr *Trace) GeometricRate() float64 {
	T := tr.Rounds()
	if T == 0 {
		return 0
	}
	d0 := tr.DiameterAt(0)
	dT := tr.DiameterAt(T)
	if d0 == 0 || dT == 0 {
		return 0
	}
	return math.Pow(dT/d0, 1/float64(T))
}

// WorstRoundRatio returns the largest per-round contraction ratio of the
// run — the round in which the algorithm contracted least.
func (tr *Trace) WorstRoundRatio() float64 {
	worst := 0.0
	for _, r := range tr.RoundRatios() {
		if r > worst {
			worst = r
		}
	}
	return worst
}

// ValidityHolds reports whether every recorded value vector stays inside
// the convex hull of the inputs, with the given absolute tolerance.
func (tr *Trace) ValidityHolds(tol float64) bool {
	lo, hi := Hull(tr.Inputs)
	for _, ys := range tr.Outputs {
		for _, y := range ys {
			if y < lo-tol || y > hi+tol {
				return false
			}
		}
	}
	return true
}
