package consensus

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sync"

	"repro/consensus/scenario"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// Session defaults.
const (
	// DefaultRounds is the round budget of sessions without WithRounds.
	DefaultRounds = 10
	// DefaultDepth is the valency exploration depth of sessions without
	// WithDepth.
	DefaultDepth = 3
	// DefaultSeed is the RNG seed of sessions without WithSeed.
	DefaultSeed = 1
)

// sessionConfig collects the functional options before resolution.
type sessionConfig struct {
	lib           *Library
	modelSpec     string
	model         *model.Model // pre-resolved modelSpec, when the caller already built it
	algorithmSpec string
	adversarySpec string
	scenario      *scenario.Schedule
	scenarioSpec  string
	inputs        []float64
	rounds        int
	seed          int64
	depth         int
	floor         bool
	trace         bool
}

// Option configures a Session under construction.
type Option func(*sessionConfig) error

// WithModel selects the network model by spec string (see the Models
// registry, e.g. "deaf:4" or "twoagent").
func WithModel(spec string) Option {
	return func(c *sessionConfig) error { c.modelSpec = spec; c.model = nil; return nil }
}

// withResolvedModel is WithModel for callers that already resolved the
// spec (the scenario query certifies against the model before building
// the session); the spec string still names the model in cache keys.
func withResolvedModel(spec string, m *model.Model) Option {
	return func(c *sessionConfig) error { c.modelSpec = spec; c.model = m; return nil }
}

// WithAlgorithm selects the algorithm by spec string (see the Algorithms
// registry, e.g. "midpoint" or "selfweighted:0.25"). Default "midpoint".
func WithAlgorithm(spec string) Option {
	return func(c *sessionConfig) error { c.algorithmSpec = spec; return nil }
}

// WithAdversary selects the pattern source by spec string (see the
// Adversaries registry, e.g. "greedy", "random", "randomrooted:0.2").
// Default "cycle" for sessions with a model.
func WithAdversary(spec string) Option {
	return func(c *sessionConfig) error { c.adversarySpec = spec; return nil }
}

// WithInputs sets the initial values (one per agent). Without it the
// session uses SpreadInputs. Inputs must be finite: an infinite or NaN
// input has no place in a convex hull, and no summary could carry it.
func WithInputs(inputs ...float64) Option {
	return func(c *sessionConfig) error {
		for i, v := range inputs {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("consensus: input %d is %v; inputs must be finite", i, v)
			}
		}
		c.inputs = append([]float64(nil), inputs...)
		return nil
	}
}

// WithRounds sets the round budget.
func WithRounds(n int) Option {
	return func(c *sessionConfig) error {
		if n < 0 {
			return fmt.Errorf("consensus: negative round count %d", n)
		}
		c.rounds = n
		return nil
	}
}

// WithSeed sets the RNG seed consumed by seeded adversaries.
func WithSeed(seed int64) Option {
	return func(c *sessionConfig) error { c.seed = seed; return nil }
}

// WithDepth sets the valency exploration depth used by the greedy
// adversaries and the certified floor.
func WithDepth(d int) Option {
	return func(c *sessionConfig) error {
		if d < 0 {
			return fmt.Errorf("consensus: negative valency depth %d", d)
		}
		c.depth = d
		return nil
	}
}

// WithValencyFloor makes Rounds snapshots carry the certified valency
// diameter floor δ(C_t) of every visited configuration, computed at the
// session depth on the session's shared engine. Requires a model.
func WithValencyFloor() Option {
	return func(c *sessionConfig) error { c.floor = true; return nil }
}

// WithGreedyTrace makes Rounds snapshots of greedy-adversary sessions
// carry the per-round successor valency intervals the adversary ranked.
func WithGreedyTrace() Option {
	return func(c *sessionConfig) error { c.trace = true; return nil }
}

// WithLibrary resolves the session's specs against lib instead of the
// default registries.
func WithLibrary(lib *Library) Option {
	return func(c *sessionConfig) error { c.lib = lib; return nil }
}

// Diameter returns max(values) - min(values), the 1-dimensional diameter
// Δ(y) of a value set; 0 for empty input.
func Diameter(values []float64) float64 { return core.Diameter(values) }

// SpreadInputs returns the canonical maximally spread initial values the
// tools default to: agent 1 at 1, everyone else at 0.5 except agent 0 at
// 0 — initial diameter exactly 1.
func SpreadInputs(n int) []float64 {
	if n < 1 {
		return nil
	}
	inputs := make([]float64, n)
	inputs[1%n] = 1
	for i := 2; i < n; i++ {
		inputs[i] = 0.5
	}
	return inputs
}

// Session is one configured execution. Sessions are immutable after New:
// every Run/Rounds call starts from the initial inputs with a fresh
// pattern source, so a Session is safe for concurrent use (valency-driven
// sessions share one engine whose transposition tables are
// concurrency-safe).
type Session struct {
	lib       *Library
	modelSpec string
	advSpec   string
	model     *model.Model
	scenario  *scenario.Schedule
	alg       core.Algorithm
	inputs    []float64
	rounds    int
	seed      int64
	depth     int
	floor     bool
	trace     bool
	engine    *valency.Engine
}

// enginePool shares one valency engine per (model registry, model spec,
// algorithm name, depth, convexity) across all sessions, so that
// concurrent and repeated sessions reuse each other's transposition
// tables — the same cross-round reuse the greedy adversaries depend on
// within a single run. The registry is part of the key because two
// libraries may resolve the same spec name to different models; model
// factories are expected to be deterministic per registry.
//
// The key holds the registry's id, not the registry, so the pool does
// not keep a library alive: when a model registry is collected, the
// cleanup NewModelRegistry attached to it drops its engines
// (dropEngines). A library built per request or per benchmark set-up
// thus frees its engines with it.
//
// The pool is bounded: past maxPooledEngines, engines are built
// per-session (still correct, garbage-collected after use) so that a
// long-lived server facing unbounded distinct specs cannot grow without
// limit. Each engine's three memo tables are bounded too, at 512 KiB
// each, and evict when full, so the pool's worst case is 64 engines ×
// 1.5 MiB = 96 MiB of memoized results, whatever the traffic.
var (
	engineMu   sync.Mutex
	enginePool = map[engineKey]*valency.Engine{}
)

const maxPooledEngines = 64

type engineKey struct {
	models uint64 // the model registry's id
	model  string
	alg    string
	depth  int
	convex bool
}

// dropEngines removes the pooled engines of the model registry with the
// given id; it runs once that registry is collected.
func dropEngines(models uint64) {
	engineMu.Lock()
	defer engineMu.Unlock()
	for key := range enginePool {
		if key.models == models {
			delete(enginePool, key)
		}
	}
}

func sharedEngine(models *ModelRegistry, modelSpec, algName string, m *model.Model, depth int, convex bool) *valency.Engine {
	key := engineKey{models: models.id, model: modelSpec, alg: algName, depth: depth, convex: convex}
	engineMu.Lock()
	defer engineMu.Unlock()
	if e, ok := enginePool[key]; ok {
		return e
	}
	e := valency.NewEngine(m, valency.DefaultParams(depth, convex))
	if len(enginePool) < maxPooledEngines {
		enginePool[key] = e
	}
	return e
}

// New builds a session from functional options. It resolves every spec
// eagerly (including a trial pattern-source construction), so a non-nil
// error here means Run cannot fail on configuration.
func New(opts ...Option) (*Session, error) {
	cfg := sessionConfig{
		algorithmSpec: "midpoint",
		rounds:        DefaultRounds,
		depth:         DefaultDepth,
		seed:          DefaultSeed,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	s := &Session{
		lib:       cfg.lib,
		modelSpec: cfg.modelSpec,
		advSpec:   cfg.adversarySpec,
		scenario:  cfg.scenario,
		inputs:    cfg.inputs,
		rounds:    cfg.rounds,
		seed:      cfg.seed,
		depth:     cfg.depth,
		floor:     cfg.floor,
		trace:     cfg.trace,
	}

	if cfg.scenarioSpec != "" {
		if s.scenario != nil {
			return nil, fmt.Errorf("consensus: WithScenario and WithScenarioSpec are mutually exclusive")
		}
		sch, err := s.lib.scenarios().New(cfg.scenarioSpec,
			ScenarioEnv{Models: s.lib.models(), Scenarios: s.lib.scenarios()})
		if err != nil {
			return nil, err
		}
		s.scenario = sch
	}
	if s.scenario != nil && s.advSpec != "" {
		return nil, fmt.Errorf("consensus: a session takes a scenario or an adversary, not both")
	}
	if s.scenario != nil && s.trace {
		return nil, fmt.Errorf("consensus: WithGreedyTrace requires a greedy adversary; a scenario replay makes no decisions")
	}

	switch {
	case cfg.model != nil:
		s.model = cfg.model
	case cfg.modelSpec != "":
		m, err := s.lib.models().New(cfg.modelSpec)
		if err != nil {
			return nil, err
		}
		s.model = m
	}

	n := 0
	switch {
	case s.model != nil:
		n = s.model.N()
		if s.inputs != nil && len(s.inputs) != n {
			return nil, fmt.Errorf("consensus: got %d inputs for %d agents", len(s.inputs), n)
		}
	case s.scenario != nil:
		n = s.scenario.N()
		if s.inputs != nil && len(s.inputs) != n {
			return nil, fmt.Errorf("consensus: got %d inputs for a %d-agent scenario", len(s.inputs), n)
		}
	case s.inputs != nil:
		n = len(s.inputs)
	default:
		return nil, fmt.Errorf("consensus: a session needs WithModel, WithScenario, or WithInputs to fix the agent count")
	}
	if s.scenario != nil && s.scenario.N() != n {
		return nil, fmt.Errorf("consensus: %d-agent scenario in a %d-agent session", s.scenario.N(), n)
	}
	if s.inputs == nil {
		s.inputs = SpreadInputs(n)
	}

	alg, err := s.lib.algorithms().New(cfg.algorithmSpec, n)
	if err != nil {
		return nil, err
	}
	s.alg = alg

	if s.scenario != nil {
		// The schedule is the pattern source; its fingerprint takes the
		// adversary spec's slot so sweep-cache keys are keyed by trace.
		s.advSpec = "scenario:" + s.scenario.Fingerprint()
		if s.floor {
			if s.model == nil {
				return nil, fmt.Errorf("consensus: the valency floor requires a model")
			}
			s.engine = sharedEngine(s.lib.models(), s.modelSpec, alg.Name(), s.model, s.depth, alg.Convex())
		}
		return s, nil
	}

	if s.advSpec == "" {
		if s.model == nil {
			return nil, fmt.Errorf("consensus: a session without a model needs WithAdversary (a model-free source such as randomrooted:P)")
		}
		s.advSpec = "cycle"
	}
	fac, _, err := s.lib.adversaries().lookup(s.advSpec)
	if err != nil {
		return nil, err
	}
	if (fac.NeedsModel || fac.NeedsEngine || s.floor) && s.model == nil {
		return nil, fmt.Errorf("consensus: %q and the valency floor require a model", s.advSpec)
	}
	if fac.NeedsEngine || s.floor {
		s.engine = sharedEngine(s.lib.models(), s.modelSpec, alg.Name(), s.model, s.depth, alg.Convex())
	}
	if _, _, err := s.newSource(context.Background()); err != nil {
		return nil, err
	}
	return s, nil
}

// N returns the number of agents.
func (s *Session) N() int { return len(s.inputs) }

// RoundBudget returns the configured number of rounds. (The streaming
// iterator over an execution is the Rounds method taking a context.)
func (s *Session) RoundBudget() int { return s.rounds }

// Algorithm returns the resolved algorithm name.
func (s *Session) Algorithm() string { return s.alg.Name() }

// Adversary returns the resolved adversary spec; scenario-driven
// sessions report "scenario:" plus the schedule's trace fingerprint.
func (s *Session) Adversary() string { return s.advSpec }

// Inputs returns a copy of the initial values.
func (s *Session) Inputs() []float64 { return append([]float64(nil), s.inputs...) }

// Convex reports whether the session's algorithm is a convex combination
// algorithm.
func (s *Session) Convex() bool { return s.alg.Convex() }

// ModelInfo describes the session's model, if any.
func (s *Session) ModelInfo() (spec string, n, graphs int, ok bool) {
	if s.model == nil {
		return "", 0, 0, false
	}
	return s.modelSpec, s.model.N(), s.model.Size(), true
}

// ContractionBound returns the strongest proven contraction-rate lower
// bound for the session's model (the header cmd/contraction prints),
// computed on the already-built model — no Solvability round trip. ok is
// false for model-free sessions.
func (s *Session) ContractionBound() (rate float64, theorem, detail string, ok bool) {
	if s.model == nil {
		return 0, "", "", false
	}
	b := s.model.ContractionLowerBound()
	return b.Rate, b.Theorem, b.Detail, true
}

// newSource builds a fresh pattern source for one run under ctx, which
// bounds a valency-driven adversary's searches, plus the greedy decision
// trace sink when tracing is on.
func (s *Session) newSource(ctx context.Context) (core.PatternSource, *[]adversary.Decision, error) {
	if s.scenario != nil {
		return s.scenario.Source(), nil, nil
	}
	env := AdversaryEnv{
		Model:     s.model,
		Algorithm: s.alg,
		N:         s.N(),
		Seed:      s.seed,
		Depth:     s.depth,
		Engine:    s.engine,
		Context:   ctx,
	}
	src, err := s.lib.adversaries().New(s.advSpec, env)
	if err != nil {
		return nil, nil, err
	}
	var decs *[]adversary.Decision
	if s.trace {
		if g, ok := src.(*adversary.Greedy); ok {
			decs = new([]adversary.Decision)
			g.Trace = decs
		}
	}
	return src, decs, nil
}

// Run executes the session from its initial inputs and returns the full
// result. It honors ctx cancellation between rounds and inside a
// valency-driven adversary's search; a context that can never be
// cancelled adds no per-round work, keeping the facade overhead of long
// measurement runs in the noise (see BenchmarkSessionVsCore).
func (s *Session) Run(ctx context.Context) (*Result, error) {
	src, _, err := s.newSource(ctx)
	if err != nil {
		return nil, err
	}
	tr, err := core.RunCtx(ctx, s.alg, s.inputs, src, s.rounds)
	if err != nil {
		return nil, err
	}
	return &Result{tr: tr}, nil
}

// Result is a completed session run. Accessors returning slices return
// fresh copies.
type Result struct {
	tr *core.Trace
}

// Algorithm returns the algorithm name.
func (r *Result) Algorithm() string { return r.tr.Algorithm }

// Rounds returns the number of executed rounds.
func (r *Result) Rounds() int { return r.tr.Rounds() }

// Inputs returns the initial values.
func (r *Result) Inputs() []float64 { return append([]float64(nil), r.tr.Inputs...) }

// Outputs returns the value vector after round t (t = 0 is the inputs).
func (r *Result) Outputs(t int) []float64 { return append([]float64(nil), r.tr.Outputs[t]...) }

// FinalOutputs returns the value vector after the last round.
func (r *Result) FinalOutputs() []float64 { return r.Outputs(r.Rounds()) }

// DiameterAt returns Δ(y(t)).
func (r *Result) DiameterAt(t int) float64 { return r.tr.DiameterAt(t) }

// Diameters returns Δ(y(t)) for t = 0..Rounds.
func (r *Result) Diameters() []float64 { return r.tr.Diameters() }

// GeometricRate returns the fitted per-round contraction factor
// (Δ(y(T))/Δ(y(0)))^(1/T); 0 when either end diameter is 0.
func (r *Result) GeometricRate() float64 { return r.tr.GeometricRate() }

// WorstRoundRatio returns the largest single-round contraction ratio.
func (r *Result) WorstRoundRatio() float64 { return r.tr.WorstRoundRatio() }

// ValidityHolds reports whether every recorded value stayed inside the
// input hull, with the given absolute tolerance.
func (r *Result) ValidityHolds(tol float64) bool { return r.tr.ValidityHolds(tol) }

// GeometricRate returns the fitted per-round contraction factor
// (Δ(T)/Δ(0))^(1/T) of a streamed diameter series (diameters[t] = Δ(y(t))
// as Snapshot.Diameter yields them); 0 when either end diameter is 0 or
// no round was run. It matches Result.GeometricRate by the same
// convention.
func GeometricRate(diameters []float64) float64 {
	st := diameterStats(diameters)
	return st.rate()
}

// WorstRoundRatio returns the largest single-round contraction ratio of a
// streamed diameter series; rounds whose predecessor diameter is 0 count
// as 0, matching Result.WorstRoundRatio.
func WorstRoundRatio(diameters []float64) float64 { return diameterStats(diameters).worst }

// Snapshot is one streamed round of a session execution.
type Snapshot struct {
	// Round is the completed round number; 0 is the initial configuration.
	Round int
	// Graph renders the communication graph played this round ("" at 0).
	Graph string
	// ModelIndex is the played graph's index in the session model, or -1
	// when the session has no model or the graph is not a member.
	ModelIndex int
	// Outputs is a fresh copy of the value vector after the round.
	Outputs []float64
	// Diameter is Δ(y) after the round.
	Diameter float64
	// Floor is the certified valency-diameter floor δ(C) (WithValencyFloor
	// sessions only; see HasFloor). Matching the repository's printed
	// tables, rounds >= 1 of non-convex algorithms report 0.
	Floor float64
	// HasFloor marks sessions computing the floor.
	HasFloor bool
	// Successors holds the greedy adversary's ranked successor valency
	// intervals for this round's decision (WithGreedyTrace sessions only).
	Successors []Interval
}

// Rounds streams the execution one completed round at a time — snapshot 0
// first — without materializing a trace: it observes core.Exec, which
// steps one state in place on either execution path, so arbitrarily long
// executions run in constant memory. The iterator stops early when ctx is
// cancelled (yielding the context error), also inside an adversary's or
// the floor's valency search, or when the consumer breaks.
func (s *Session) Rounds(ctx context.Context) iter.Seq2[Snapshot, error] {
	return func(yield func(Snapshot, error) bool) {
		yield = observeContraction(yield)
		src, decs, err := s.newSource(ctx)
		if err != nil {
			yield(Snapshot{}, err)
			return
		}
		var floorErr error
		err = core.Exec(ctx, s.alg, s.inputs, src, s.rounds, func(t int, g graph.Graph, v core.View) bool {
			snap, err := s.snapshot(ctx, v, t, g, s.lastDecision(decs, t))
			if err != nil {
				floorErr = err
				return false
			}
			return yield(snap, nil)
		})
		if err == nil {
			err = floorErr
		}
		if err != nil {
			yield(Snapshot{}, err)
		}
	}
}

// lastDecision pops the greedy decision recorded for round t, if any.
// The trace sink is truncated after every read so that streaming — which
// promises constant memory over arbitrarily many rounds — never
// accumulates per-round decisions.
func (s *Session) lastDecision(decs *[]adversary.Decision, t int) *adversary.Decision {
	if decs == nil || len(*decs) == 0 {
		return nil
	}
	d := (*decs)[len(*decs)-1]
	*decs = (*decs)[:0]
	if d.Round != t {
		return nil
	}
	return &d
}

// snapshot renders round t of the execution from the observer's view.
// The floor replicates the repository's printed tables: the initial
// configuration always gets the certified bound, later rounds only for
// convex combination algorithms (0 otherwise). Its search runs under
// ctx, whose error snapshot returns when ctx is done first.
func (s *Session) snapshot(ctx context.Context, v core.View, t int, g graph.Graph, dec *adversary.Decision) (Snapshot, error) {
	snap := Snapshot{Round: t, ModelIndex: -1, HasFloor: s.floor, Outputs: v.Outputs()}
	lo, hi := v.Hull()
	snap.Diameter = hi - lo
	if t > 0 {
		snap.Graph = g.String()
		if s.model != nil {
			snap.ModelIndex = s.model.Index(g)
		}
	}
	if dec != nil {
		snap.ModelIndex = dec.Chosen
		snap.Successors = make([]Interval, len(dec.Inner))
		for i, iv := range dec.Inner {
			snap.Successors[i] = Interval{Lo: iv.Lo, Hi: iv.Hi}
		}
	}
	if s.floor && (t == 0 || s.alg.Convex()) {
		floor, err := s.engine.DeltaLower(ctx, v.Config())
		if err != nil {
			return Snapshot{}, err
		}
		snap.Floor = floor
	}
	return snap, nil
}
