package consensus

import (
	"context"
	"fmt"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/model"
)

// Interval is a closed real interval [Lo, Hi], the wire form of the
// valency engine's certified bounds.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Diameter returns Hi - Lo, or 0 for empty (inverted) intervals.
func (iv Interval) Diameter() float64 {
	if iv.Lo > iv.Hi {
		return 0
	}
	return iv.Hi - iv.Lo
}

// withinCtx runs f honoring ctx: when ctx can be cancelled, f runs in a
// goroutine and the call returns ctx.Err() on cancellation. The engines
// have no internal preemption points, so an abandoned computation runs to
// completion in the background (its engine-pool cache work is not lost).
func withinCtx[T any](ctx context.Context, f func() (T, error)) (T, error) {
	if ctx.Done() == nil {
		return f()
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := f()
		ch <- outcome{v, err}
	}()
	select {
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	case o := <-ch:
		return o.v, o.err
	}
}

// SolvabilityReport is the full model analysis of cmd/solvability: the
// Coulouma-Godard-Peters machinery plus the strongest contraction-rate
// lower bound the paper proves for the model.
type SolvabilityReport struct {
	Model       string `json:"model"`
	Description string `json:"description"`
	N           int    `json:"n"`
	Graphs      int    `json:"graphs"`

	Rooted   bool `json:"rooted"`
	NonSplit bool `json:"non_split"`

	AlphaDiameter int  `json:"alpha_diameter"`
	AlphaFinite   bool `json:"alpha_finite"`

	BetaClasses        [][]int `json:"beta_classes"`
	SourceIncompatible []bool  `json:"source_incompatible"`

	ExactConsensusSolvable bool `json:"exact_consensus_solvable"`

	BoundRate    float64 `json:"bound_rate"`
	BoundTheorem string  `json:"bound_theorem"`
	BoundDetail  string  `json:"bound_detail"`

	// GraphNames and GraphRoots render every member graph and its root
	// set.
	GraphNames []string `json:"graph_names"`
	GraphRoots [][]int  `json:"graph_roots"`
}

// Solvability analyzes a model spec. The analysis is pure computation;
// ctx bounds it for serving (see withinCtx for the cancellation
// semantics). Model construction happens inside the budget too — for
// enumerated families (rooted:N, na:N,F) it can dominate.
func Solvability(ctx context.Context, modelSpec string, opts ...QueryOption) (*SolvabilityReport, error) {
	cfg := applyQueryOptions(opts)
	return withinCtx(ctx, func() (*SolvabilityReport, error) {
		m, err := cfg.lib.models().New(modelSpec)
		if err != nil {
			return nil, err
		}
		r := &SolvabilityReport{
			Model:       modelSpec,
			Description: m.String(),
			N:           m.N(),
			Graphs:      m.Size(),
			Rooted:      m.IsRooted(),
			NonSplit:    m.IsNonSplit(),
		}
		r.AlphaDiameter, r.AlphaFinite = m.AlphaDiameter()
		r.BetaClasses = m.BetaClasses()
		r.SourceIncompatible = make([]bool, len(r.BetaClasses))
		for i, class := range r.BetaClasses {
			r.SourceIncompatible[i] = m.SourceIncompatible(class)
		}
		r.ExactConsensusSolvable = m.ExactConsensusSolvable()
		// ContractionLowerBound re-derives parts of the analysis above (the
		// model layer keeps its bound derivation self-contained); the server's
		// response cache absorbs the cost for repeated queries.
		b := m.ContractionLowerBound()
		r.BoundRate, r.BoundTheorem, r.BoundDetail = b.Rate, b.Theorem, b.Detail
		r.GraphNames = make([]string, m.Size())
		r.GraphRoots = make([][]int, m.Size())
		for i, g := range m.Graphs() {
			r.GraphNames[i] = g.String()
			r.GraphRoots[i] = graph.SetToNodes(g.RootsSet())
		}
		return r, nil
	})
}

// queryConfig collects query options.
type queryConfig struct {
	lib *Library
}

// QueryOption configures the query helpers.
type QueryOption func(*queryConfig)

// QueryLibrary resolves the query's specs against lib.
func QueryLibrary(lib *Library) QueryOption {
	return func(c *queryConfig) { c.lib = lib }
}

func applyQueryOptions(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// ValencyRequest asks for certified valency bounds of an initial
// configuration under a model.
type ValencyRequest struct {
	Model     string    `json:"model"`
	Algorithm string    `json:"algorithm,omitempty"`
	Inputs    []float64 `json:"inputs,omitempty"`
	Depth     int       `json:"depth,omitempty"`
}

// ValencyReport carries the engine's certified interval bounds on the
// valency Y*(C) of the requested configuration.
type ValencyReport struct {
	Model     string `json:"model"`
	Algorithm string `json:"algorithm"`
	Depth     int    `json:"depth"`
	// Inner is spanned by genuinely reachable limits; its diameter is a
	// sound lower bound on δ(C).
	Inner      Interval `json:"inner"`
	DeltaLower float64  `json:"delta_lower"`
	// Outer provably contains Y*(C) (convex combination algorithms only).
	Outer      *Interval `json:"outer,omitempty"`
	DeltaUpper float64   `json:"delta_upper,omitempty"`
	// CacheHitRate is the fraction of the shared engine's memo-table
	// lookups that hit, over the engine's life up to and including this
	// query — the cross-query reuse the engine pool provides. The tables
	// evict when full, so looking up an evicted entry counts as a miss;
	// the bounds are the same either way.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// ValencyBounds computes certified inner (and, for convex combination
// algorithms, outer) valency bounds for the initial configuration of the
// requested algorithm on the model, exploring to the requested depth
// (DefaultDepth when 0) on the shared per-model engine.
func ValencyBounds(ctx context.Context, req ValencyRequest, opts ...QueryOption) (*ValencyReport, error) {
	cfg := applyQueryOptions(opts)
	// Model construction can dominate for enumerated families; keep it
	// inside the cancellation scope like the exploration itself.
	m, err := withinCtx(ctx, func() (*model.Model, error) { return cfg.lib.models().New(req.Model) })
	if err != nil {
		return nil, err
	}
	algSpec := req.Algorithm
	if algSpec == "" {
		algSpec = "midpoint"
	}
	alg, err := cfg.lib.algorithms().New(algSpec, m.N())
	if err != nil {
		return nil, err
	}
	inputs := req.Inputs
	if inputs == nil {
		inputs = SpreadInputs(m.N())
	} else if len(inputs) != m.N() {
		return nil, fmt.Errorf("consensus: got %d inputs for %d agents", len(inputs), m.N())
	}
	depth := req.Depth
	if depth == 0 {
		depth = DefaultDepth
	}
	if depth < 0 {
		return nil, fmt.Errorf("consensus: negative valency depth %d", depth)
	}
	eng := sharedEngine(cfg.lib.models(), req.Model, alg.Name(), m, depth, alg.Convex())
	return withinCtx(ctx, func() (*ValencyReport, error) {
		c := core.NewConfig(alg, inputs)
		inner := eng.Inner(c)
		r := &ValencyReport{
			Model:      req.Model,
			Algorithm:  alg.Name(),
			Depth:      depth,
			Inner:      Interval{Lo: inner.Lo, Hi: inner.Hi},
			DeltaLower: inner.Diameter(),
		}
		if alg.Convex() {
			outer := eng.Outer(c)
			r.Outer = &Interval{Lo: outer.Lo, Hi: outer.Hi}
			r.DeltaUpper = outer.Diameter()
		}
		r.CacheHitRate = eng.Stats().HitRate()
		return r, nil
	})
}

// DecisionRequest asks for an approximate-consensus decision-time sweep:
// run the decider for each tolerance and report its decision round next
// to the named theorem's lower bound.
type DecisionRequest struct {
	Model     string    `json:"model"`
	Algorithm string    `json:"algorithm"`
	Adversary string    `json:"adversary,omitempty"` // default "fixed:0"
	Inputs    []float64 `json:"inputs,omitempty"`
	// Contraction is the per-round contraction factor the algorithm
	// guarantees in the model (drives the decision-round formula).
	Contraction float64 `json:"contraction"`
	// Delta upper-bounds the initial diameter (default 1).
	Delta float64   `json:"delta,omitempty"`
	Eps   []float64 `json:"eps"`
	// Theorem selects the lower bound: "T8", "T9", "T10", "T11", or ""
	// for none.
	Theorem string `json:"theorem,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
}

// DecisionPoint is one (ε, decision time) sample.
type DecisionPoint struct {
	Eps        float64 `json:"eps"`
	LowerBound float64 `json:"lower_bound"`
	Rounds     int     `json:"rounds"`
	Spread     float64 `json:"spread"`
	OK         bool    `json:"ok"`
}

// DecisionSweep runs the optimal decider over the requested tolerances,
// checking ctx between tolerance points.
func DecisionSweep(ctx context.Context, req DecisionRequest, opts ...QueryOption) ([]DecisionPoint, error) {
	cfg := applyQueryOptions(opts)
	m, err := withinCtx(ctx, func() (*model.Model, error) { return cfg.lib.models().New(req.Model) })
	if err != nil {
		return nil, err
	}
	alg, err := cfg.lib.algorithms().New(req.Algorithm, m.N())
	if err != nil {
		return nil, err
	}
	if !(req.Contraction > 0) || req.Contraction >= 1 {
		return nil, fmt.Errorf("consensus: decision sweep needs a contraction factor in (0,1), got %v", req.Contraction)
	}
	delta := req.Delta
	if delta == 0 {
		delta = 1
	}
	inputs := req.Inputs
	if inputs == nil {
		inputs = SpreadInputs(m.N())
	} else if len(inputs) != m.N() {
		return nil, fmt.Errorf("consensus: got %d inputs for %d agents", len(inputs), m.N())
	}
	if got := core.Diameter(inputs); got > delta {
		return nil, fmt.Errorf("consensus: initial diameter %v exceeds declared delta %v", got, delta)
	}
	if len(req.Eps) == 0 {
		return nil, fmt.Errorf("consensus: decision sweep needs at least one tolerance")
	}
	for _, eps := range req.Eps {
		if eps <= 0 || eps > delta {
			return nil, fmt.Errorf("consensus: tolerance %v outside (0, delta=%v]", eps, delta)
		}
	}

	lower, err := theoremLowerBound(req.Theorem, m, delta)
	if err != nil {
		return nil, err
	}

	advSpec := req.Adversary
	if advSpec == "" {
		advSpec = "fixed:0"
	}
	seed := req.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	newSrc := func() (core.PatternSource, error) {
		return cfg.lib.adversaries().New(advSpec, AdversaryEnv{
			Model: m, Algorithm: alg, N: m.N(), Seed: seed, Depth: DefaultDepth,
		})
	}
	src, err := newSrc()
	if err != nil {
		return nil, err
	}

	d := approx.Decider{Alg: alg, Contraction: req.Contraction}
	if points, ok, err := denseDecisionPoints(ctx, d, alg, inputs, src, delta, req.Eps, lower); ok {
		return points, err
	}

	points := make([]DecisionPoint, 0, len(req.Eps))
	for _, eps := range req.Eps {
		if err := ctx.Err(); err != nil {
			return points, err
		}
		src, err := newSrc()
		if err != nil {
			return points, err
		}
		res := d.Run(inputs, src, delta, eps)
		points = append(points, DecisionPoint{
			Eps:        eps,
			LowerBound: lower(eps),
			Rounds:     res.DecisionRound,
			Spread:     res.Spread,
			OK:         res.EpsAgreement && res.Validity,
		})
	}
	return points, nil
}

// denseDecisionPoints is the batch-plane decision sweep: the per-ε
// deciding runs of a sweep share one trajectory whenever the adversary
// is oblivious (fresh equal-seed sources replay the same graph
// sequence) and the algorithm steps densely, so the batch degenerates
// to one dense run sampled at every tolerance's decision round — the
// decisions of an r-round run are exactly the outputs at round r of the
// longer shared execution. Per-point numbers are bit-identical to the
// sequential per-ε path (the differential test pins this); ok is false
// when the request must take that path.
func denseDecisionPoints(ctx context.Context, d approx.Decider, alg core.Algorithm, inputs []float64, src core.PatternSource, delta float64, epss []float64, lower func(eps float64) float64) ([]DecisionPoint, bool, error) {
	da, denseOK := core.AsDense(alg)
	if !denseOK || !core.IsOblivious(src) {
		return nil, false, nil
	}
	rounds := make([]int, len(epss))
	maxRounds := 0
	for i, eps := range epss {
		rounds[i] = d.Rounds(delta, eps)
		if rounds[i] > maxRounds {
			maxRounds = rounds[i]
		}
	}
	br := core.NewBatchRunner(da, [][]float64{inputs})
	out := make([]float64, len(inputs))
	hullLo, hullHi := core.Hull(inputs)
	points := make([]DecisionPoint, len(epss))
	sample := func(t int) {
		for i, r := range rounds {
			if r != t {
				continue
			}
			br.Outputs(0, out)
			spread := core.Diameter(out)
			validity := true
			for _, v := range out {
				if v < hullLo-1e-9 || v > hullHi+1e-9 {
					validity = false
				}
			}
			points[i] = DecisionPoint{
				Eps:        epss[i],
				LowerBound: lower(epss[i]),
				Rounds:     r,
				Spread:     spread,
				OK:         spread <= epss[i]*(1+1e-9) && validity,
			}
		}
	}
	sample(0)
	done := ctx.Done()
	for t := 1; t <= maxRounds; t++ {
		if done != nil {
			select {
			case <-done:
				// Unlike the sequential path's completed prefix, the
				// shared trajectory fills points in decision-round
				// order; return none rather than fabricated zeros.
				return nil, true, ctx.Err()
			default:
			}
		}
		br.Step(src.Next(t, nil))
		sample(t)
	}
	br.FlushMetrics()
	return points, true, nil
}

// theoremLowerBound resolves a decision-time theorem name to its bound.
func theoremLowerBound(theorem string, m interface {
	N() int
	AlphaDiameter() (int, bool)
}, delta float64) (func(eps float64) float64, error) {
	switch theorem {
	case "":
		return func(float64) float64 { return 0 }, nil
	case "T8":
		return func(eps float64) float64 { return approx.Theorem8LowerBound(delta, eps) }, nil
	case "T9":
		return func(eps float64) float64 { return approx.Theorem9LowerBound(delta, eps) }, nil
	case "T10":
		n := m.N()
		return func(eps float64) float64 { return approx.Theorem10LowerBound(n, delta, eps) }, nil
	case "T11":
		d, finite := m.AlphaDiameter()
		if !finite {
			return nil, fmt.Errorf("consensus: T11 needs a finite alpha-diameter")
		}
		n := m.N()
		return func(eps float64) float64 { return approx.Theorem11LowerBound(d, n, delta, eps) }, nil
	default:
		return nil, fmt.Errorf("consensus: unknown decision-time theorem %q (want T8|T9|T10|T11)", theorem)
	}
}

// ExperimentInfo describes one registered paper-reproduction experiment.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Paper string `json:"paper"`
}

// Experiments lists the paper-reproduction registry (every Table 1 cell,
// figure, and decision-time theorem), sorted by ID.
func Experiments() []ExperimentInfo {
	all := exp.All()
	out := make([]ExperimentInfo, len(all))
	for i, e := range all {
		out[i] = ExperimentInfo{ID: e.ID, Title: e.Title, Paper: e.Paper}
	}
	return out
}

// ExperimentResult is one regenerated experiment table.
type ExperimentResult struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Paper  string     `json:"paper"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`

	tbl *exp.Table
}

// Render formats the result as the aligned monospace table cmd/paperbench
// prints.
func (r *ExperimentResult) Render() string { return r.tbl.Render() }

// CSV renders the result as comma-separated values.
func (r *ExperimentResult) CSV() string { return r.tbl.CSV() }

// RunExperiment regenerates one experiment by ID (see withinCtx for the
// cancellation semantics).
func RunExperiment(ctx context.Context, id string) (*ExperimentResult, error) {
	e, ok := exp.Find(id)
	if !ok {
		return nil, fmt.Errorf("consensus: unknown experiment %q; see Experiments()", id)
	}
	return withinCtx(ctx, func() (*ExperimentResult, error) {
		tbl := e.Run()
		return &ExperimentResult{
			ID:     tbl.ID,
			Title:  tbl.Title,
			Paper:  tbl.Paper,
			Header: tbl.Header,
			Rows:   tbl.Rows,
			Notes:  tbl.Notes,
			tbl:    tbl,
		}, nil
	})
}
