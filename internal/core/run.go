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

// IsOblivious reports whether src declares itself configuration-
// independent (see Oblivious); only such sources can drive the dense
// path.
func IsOblivious(src PatternSource) bool {
	o, ok := src.(Oblivious)
	return ok && o.ObliviousSource()
}

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
// drawing graphs from src, and returns the trace. It is RunCtx under a
// context that is never cancelled.
func Run(alg Algorithm, inputs []float64, src PatternSource, rounds int) *Trace {
	tr, _ := RunCtx(context.Background(), alg, inputs, src, rounds)
	return tr
}

// RunCtx is the tracing observer of Exec: it records every round's graph
// and output vector, and the configuration after the last round as
// Final. It returns (nil, ctx.Err()) when the context is done before the
// last round.
func RunCtx(ctx context.Context, alg Algorithm, inputs []float64, src PatternSource, rounds int) (*Trace, error) {
	tr := &Trace{Algorithm: alg.Name()}
	err := Exec(ctx, alg, inputs, src, rounds, func(t int, g graph.Graph, v View) bool {
		if t == 0 {
			tr.Inputs = v.Outputs()
			tr.Graphs = make([]graph.Graph, 0, rounds)
			tr.Outputs = make([][]float64, 0, rounds+1)
		} else {
			tr.Graphs = append(tr.Graphs, g)
		}
		tr.Outputs = append(tr.Outputs, v.Outputs())
		if t == rounds {
			// The last round: no later round overwrites the view.
			tr.Final = v.Config()
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// View is a read-only view of an execution's state after a round, as
// Exec hands it to its observer. *DenseRunner and *Config implement it.
type View interface {
	// Hull returns the convex hull [lo, hi] of the observable outputs
	// without allocating.
	Hull() (lo, hi float64)
	// Outputs returns a fresh slice of the observable outputs.
	Outputs() []float64
	// Config returns the state as an agent configuration: the live one
	// on the Agent path, a fresh materialization on the dense path.
	Config() *Config
}

// Exec is the round loop of one execution, which traced runs, streamed
// sessions, a sweep's one-run units and decision sweeps all observe
// (batch tiles step many runs at once instead). It runs alg from the
// given inputs for the given number of rounds, drawing graphs from src,
// and calls observe with a view of the state at round 0 (with the zero
// graph) and after every round t with the graph played. It chooses the
// execution path once: a dense-capable algorithm (AsDense) under an
// oblivious source runs on flat struct-of-arrays state, anything else on
// the Agent path, stepping one Config in place; the views are
// bit-identical either way.
//
// Exec checks ctx after every src.Next, before the round is played, and
// returns ctx.Err() when it is done; a context that can never be
// cancelled (nil Done channel, e.g. context.Background) adds no
// per-round work. Checking after Next matters for sources that search
// under the same context (the valency-driven adversaries): a search cut
// short returns an arbitrary graph, which must not be played. When
// observe returns false the run stops and Exec returns nil. Observers
// must not keep the view past the call: on the Agent path it is the live
// configuration, which the next round overwrites.
func Exec(ctx context.Context, alg Algorithm, inputs []float64, src PatternSource, rounds int, observe func(t int, g graph.Graph, v View) bool) error {
	if rounds < 0 {
		panic(fmt.Sprintf("core: negative round count %d", rounds))
	}
	var (
		r *DenseRunner
		c *Config // stays nil on the dense path, as oblivious sources expect
		v View
	)
	if d, ok := AsDense(alg); ok && IsOblivious(src) {
		r = NewDenseRunner(d, inputs)
		v = r
	} else {
		c = NewConfig(alg, inputs)
		v = c
	}
	if !observe(0, graph.Graph{}, v) {
		return nil
	}
	done := ctx.Done()
	for t := 1; t <= rounds; t++ {
		g := src.Next(t, c)
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if r != nil {
			r.Step(g)
		} else {
			c.StepInPlace(g)
		}
		if !observe(t, g, v) {
			return nil
		}
	}
	return nil
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
