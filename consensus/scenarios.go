package consensus

import (
	"context"
	"encoding/base64"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/consensus/scenario"
	"repro/internal/model"
)

// This file wires the scenario plane into the facade: a registry of
// named schedule generators (the fourth spec registry next to
// Algorithms, Models, Adversaries), session options attaching a schedule
// to a run, scenario grids for Sweep, and the RunScenario query the
// server and the scenario tool share.

// ScenarioEnv is what a scenario factory gets to work with: the model
// registry (for generators drawing from a model spec) and the scenario
// registry itself (for composite specs that resolve operands
// recursively).
type ScenarioEnv struct {
	Models    *ModelRegistry
	Scenarios *ScenarioRegistry

	// depth and budget bound one resolution tree: spec strings arrive
	// from untrusted sources, and without a shared allowance a deeply
	// nested composite ("repeat:1;repeat:1;..." around a long schedule)
	// performs quadratic copy work that no per-level cap can see.
	// Zero values mean "root of a fresh resolution"; ScenarioRegistry.New
	// fills them in, and composite factories pass their env through so
	// nested resolutions draw from the same allowance.
	depth  int
	budget *int
}

// Resolution-tree bounds. The round budget matches the codec's MaxRounds,
// so any schedule a single trace could hold still resolves; what it
// stops is composites re-materializing long schedules many times over.
const (
	maxScenarioResolveDepth  = 64
	maxScenarioResolveRounds = 1 << 22
)

// ScenarioFactory builds a schedule from the argument part of a spec
// string. Factories must be deterministic: the same spec resolves to the
// same schedule (randomized generators take explicit seeds).
type ScenarioFactory struct {
	Name    string
	Usage   string
	Summary string
	New     func(arg string, env ScenarioEnv) (*scenario.Schedule, error)
}

// Resolution-cache bounds: entries caps distinct specs, rounds caps the
// total graphs pinned by cached schedules (schedules are immutable and
// shared with callers, so the cache's marginal cost is the table itself
// plus whatever the caller would have dropped). A schedule too large to
// ever share the cache fairly is simply not cached.
const (
	maxScenarioCacheEntries = 256
	maxScenarioCacheRounds  = 1 << 20
)

// ScenarioRegistry maps spec names to scenario factories. It is safe for
// concurrent use.
//
// It memoizes successful resolutions: factories are deterministic by
// contract, schedules are immutable, and scenario sweeps resolve the
// same specs once per session construction — so repeated resolutions
// (sweep re-runs, grid axes sharing scenarios, server queries) return
// the already-materialized schedule, with its fingerprint memo warm.
// The cache is FIFO-bounded by entries and by total cached rounds.
type ScenarioRegistry struct {
	id uint64
	mu sync.RWMutex
	m  map[string]ScenarioFactory

	cacheMu      sync.Mutex
	cache        map[string]*scenario.Schedule
	cacheOrder   []string
	cacheHead    int
	cachedRounds int
	cacheHits    uint64
	cacheMisses  uint64
}

// NewScenarioRegistry returns an empty registry.
func NewScenarioRegistry() *ScenarioRegistry {
	return &ScenarioRegistry{id: registryIDs.Add(1), m: make(map[string]ScenarioFactory)}
}

// Register adds a factory; registering a duplicate or empty name errors.
func (r *ScenarioRegistry) Register(f ScenarioFactory) error {
	if f.Name == "" || f.New == nil {
		return fmt.Errorf("consensus: scenario factory needs a name and a constructor")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[f.Name]; dup {
		return fmt.Errorf("consensus: scenario %q already registered", f.Name)
	}
	r.m[f.Name] = f
	return nil
}

// New resolves a spec string ("name" or "name:arg") to a schedule.
// Successful resolutions are memoized (see ScenarioRegistry); the round
// budget is charged on cache hits too, so a composite tree's allowance
// is independent of cache state.
func (r *ScenarioRegistry) New(spec string, env ScenarioEnv) (*scenario.Schedule, error) {
	env.depth++
	if env.depth > maxScenarioResolveDepth {
		return nil, fmt.Errorf("consensus: scenario spec nests deeper than %d", maxScenarioResolveDepth)
	}
	if env.budget == nil {
		budget := maxScenarioResolveRounds
		env.budget = &budget
	}
	key := r.resolveCacheKey(spec, env)
	if s, ok := r.cachedSchedule(key); ok {
		if *env.budget -= s.PrefixLen() + s.LoopLen(); *env.budget < 0 {
			return nil, fmt.Errorf("consensus: scenario spec materializes more than %d rounds across its composition", maxScenarioResolveRounds)
		}
		return s, nil
	}
	name, arg := splitSpec(spec)
	r.mu.RLock()
	f, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("consensus: unknown scenario %q (have %s)", name, strings.Join(r.Names(), ", "))
	}
	s, err := f.New(arg, env)
	if err != nil {
		return nil, err
	}
	// Charge the materialized rounds against the whole tree's budget.
	if *env.budget -= s.PrefixLen() + s.LoopLen(); *env.budget < 0 {
		return nil, fmt.Errorf("consensus: scenario spec materializes more than %d rounds across its composition", maxScenarioResolveRounds)
	}
	r.storeSchedule(key, s)
	return s, nil
}

// resolveCacheKey names one resolution: the spec plus the identities of
// the registries a factory may consult (models for generator operands,
// scenarios for composite recursion). Registries only grow, so a key
// that resolved once resolves the same way forever.
func (r *ScenarioRegistry) resolveCacheKey(spec string, env ScenarioEnv) string {
	var mid, sid uint64
	if env.Models != nil {
		mid = env.Models.id
	}
	if env.Scenarios != nil {
		sid = env.Scenarios.id
	}
	return strconv.FormatUint(mid, 36) + "|" + strconv.FormatUint(sid, 36) + "|" + spec
}

// cachedSchedule looks up a memoized resolution.
func (r *ScenarioRegistry) cachedSchedule(key string) (*scenario.Schedule, bool) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	s, ok := r.cache[key]
	if ok {
		r.cacheHits++
	} else {
		r.cacheMisses++
	}
	return s, ok
}

// storeSchedule memoizes a successful resolution, evicting oldest-first
// (FIFO: order slice plus head index, compacted at half-waste) until the
// entry and round caps hold. Oversized schedules that would monopolize
// the round allowance are not cached.
func (r *ScenarioRegistry) storeSchedule(key string, s *scenario.Schedule) {
	rounds := s.PrefixLen() + s.LoopLen()
	if rounds > maxScenarioCacheRounds/4 {
		return
	}
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if r.cache == nil {
		r.cache = make(map[string]*scenario.Schedule, maxScenarioCacheEntries)
	}
	if _, dup := r.cache[key]; dup {
		return // lost a race with a concurrent resolver; keep the first
	}
	for len(r.cache) >= maxScenarioCacheEntries || r.cachedRounds+rounds > maxScenarioCacheRounds {
		old := r.cacheOrder[r.cacheHead]
		r.cacheOrder[r.cacheHead] = ""
		r.cacheHead++
		if prev, ok := r.cache[old]; ok {
			r.cachedRounds -= prev.PrefixLen() + prev.LoopLen()
			delete(r.cache, old)
		}
		if r.cacheHead*2 >= len(r.cacheOrder) {
			r.cacheOrder = append(r.cacheOrder[:0], r.cacheOrder[r.cacheHead:]...)
			r.cacheHead = 0
		}
	}
	r.cache[key] = s
	r.cacheOrder = append(r.cacheOrder, key)
	r.cachedRounds += rounds
}

// ResolveCacheStats reports the resolution cache's hit/miss counts and
// current entry count.
func (r *ScenarioRegistry) ResolveCacheStats() (hits, misses uint64, entries int) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	return r.cacheHits, r.cacheMisses, len(r.cache)
}

// Names returns the sorted registered names.
func (r *ScenarioRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the sorted entry descriptions.
func (r *ScenarioRegistry) Describe() []FactoryInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]FactoryInfo, 0, len(r.m))
	for _, f := range r.m {
		out = append(out, FactoryInfo{Name: f.Name, Usage: f.Usage, Summary: f.Summary})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Scenarios is the default scenario registry, pre-populated with the
// built-in generators.
var Scenarios = NewScenarioRegistry()

func mustRegisterScenario(f ScenarioFactory) {
	if err := Scenarios.Register(f); err != nil {
		panic(err)
	}
}

// TraceEncoding is the base64 alphabet of inline trace specs and JSON
// trace fields. It is URL-safe and unpadded, so encoded traces survive
// spec-string composition (the '+' composite separator never occurs) and
// URLs without escaping.
var TraceEncoding = base64.RawURLEncoding

// EncodeTraceString renders a schedule as an inline trace spec,
// resolvable by the registry as "trace:<returned string>".
func EncodeTraceString(s *scenario.Schedule) string {
	return TraceEncoding.EncodeToString(s.Encode())
}

// DecodeTraceString parses the base64 payload of a "trace:" spec.
func DecodeTraceString(s string) (*scenario.Schedule, error) {
	raw, err := TraceEncoding.DecodeString(strings.TrimSpace(s))
	if err != nil {
		return nil, fmt.Errorf("consensus: bad trace base64: %v", err)
	}
	return scenario.Decode(raw)
}

// compositeOperands splits the operand list of a composite scenario
// spec on '+' at bracket depth zero. No builtin leaf spec syntax
// (base64url traces included) contains '+', but a *nested composite*
// operand does — wrap it in square brackets to protect its own '+'
// from the outer split, e.g. "interleave:[concat:A+B]+C". One outer
// bracket layer is stripped from each operand.
func compositeOperands(arg string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(arg); i++ {
		switch arg[i] {
		case '[':
			depth++
		case ']':
			if depth > 0 {
				depth--
			}
		case '+':
			if depth == 0 {
				out = append(out, stripBrackets(arg[start:i]))
				start = i + 1
			}
		}
	}
	return append(out, stripBrackets(arg[start:]))
}

// stripBrackets removes one enclosing [...] layer, if the leading '['
// matches the final ']' (so "[a]+[b]" fragments are left alone by the
// depth check above and "[a][b]" is not mangled).
func stripBrackets(s string) string {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return s
	}
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 && i != len(s)-1 {
				return s // leading '[' closes early: not one wrap
			}
		}
	}
	return s[1 : len(s)-1]
}

func parseInts(name, arg string, want int) ([]int64, error) {
	parts := strings.Split(arg, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("consensus: %s wants %d comma-separated integers, got %q", name, want, arg)
	}
	out := make([]int64, want)
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("consensus: %s argument %q: %v", name, p, err)
		}
		out[i] = v
	}
	return out, nil
}

func init() {
	registerBuiltinScenarios()
}

func registerBuiltinScenarios() {
	mustRegisterScenario(ScenarioFactory{
		Name: "partitionheal", Usage: "partitionheal:N,BLOCKS,HEALAT",
		Summary: "BLOCKS isolated complete clusters for HEALAT rounds, then the complete graph forever (eventually rooted)",
		New: func(arg string, env ScenarioEnv) (*scenario.Schedule, error) {
			v, err := parseInts("partitionheal", arg, 3)
			if err != nil {
				return nil, err
			}
			return scenario.PartitionHeal(int(v[0]), int(v[1]), int(v[2]))
		},
	})
	mustRegisterScenario(ScenarioFactory{
		Name: "churn", Usage: "churn:N,SEED,PERIOD,EPOCHS,MAXDOWN",
		Summary: "EPOCHS epochs of PERIOD rounds each with a random transmitter-down subset (<= MAXDOWN agents); rooted every round",
		New: func(arg string, env ScenarioEnv) (*scenario.Schedule, error) {
			v, err := parseInts("churn", arg, 5)
			if err != nil {
				return nil, err
			}
			return scenario.Churn(int(v[0]), v[1], int(v[2]), int(v[3]), int(v[4]))
		},
	})
	mustRegisterScenario(ScenarioFactory{
		Name: "eventuallyrooted", Usage: "eventuallyrooted:N,K",
		Summary: "K silent (unrooted) rounds, then the complete graph forever — the minimal eventually-rooted(K) schedule",
		New: func(arg string, env ScenarioEnv) (*scenario.Schedule, error) {
			v, err := parseInts("eventuallyrooted", arg, 2)
			if err != nil {
				return nil, err
			}
			return scenario.EventuallyRooted(int(v[0]), int(v[1]))
		},
	})
	mustRegisterScenario(ScenarioFactory{
		Name: "frommodel", Usage: "frommodel:MODELSPEC;SEED;ROUNDS",
		Summary: "ROUNDS uniform draws from the model, materialized — the recorded form of the random adversary",
		New: func(arg string, env ScenarioEnv) (*scenario.Schedule, error) {
			parts := strings.Split(arg, ";")
			if len(parts) != 3 {
				return nil, fmt.Errorf("consensus: frommodel wants MODELSPEC;SEED;ROUNDS, got %q", arg)
			}
			m, err := env.Models.New(parts[0])
			if err != nil {
				return nil, err
			}
			seed, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("consensus: frommodel seed %q: %v", parts[1], err)
			}
			rounds, err := strconv.Atoi(strings.TrimSpace(parts[2]))
			if err != nil {
				return nil, fmt.Errorf("consensus: frommodel rounds %q: %v", parts[2], err)
			}
			return scenario.FromModel(m, seed, rounds)
		},
	})
	mustRegisterScenario(ScenarioFactory{
		Name: "trace", Usage: "trace:BASE64URL",
		Summary: "an inline encoded trace (base64url of the binary trace format)",
		New: func(arg string, env ScenarioEnv) (*scenario.Schedule, error) {
			return DecodeTraceString(arg)
		},
	})
	mustRegisterScenario(ScenarioFactory{
		Name: "repeat", Usage: "repeat:K;SPEC",
		Summary: "the operand scenario's prefix played K times (its loop preserved)",
		New: func(arg string, env ScenarioEnv) (*scenario.Schedule, error) {
			parts := strings.SplitN(arg, ";", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("consensus: repeat wants K;SPEC, got %q", arg)
			}
			k, err := strconv.Atoi(strings.TrimSpace(parts[0]))
			if err != nil {
				return nil, fmt.Errorf("consensus: repeat count %q: %v", parts[0], err)
			}
			s, err := env.Scenarios.New(parts[1], env)
			if err != nil {
				return nil, err
			}
			return scenario.Repeat(s, k)
		},
	})
	mustRegisterScenario(ScenarioFactory{
		Name: "concat", Usage: "concat:SPEC+SPEC+... (nested composites in [brackets])",
		Summary: "the operand scenarios back to back (all but the last must be finite)",
		New: func(arg string, env ScenarioEnv) (*scenario.Schedule, error) {
			parts := compositeOperands(arg)
			ss := make([]*scenario.Schedule, len(parts))
			for i, p := range parts {
				s, err := env.Scenarios.New(p, env)
				if err != nil {
					return nil, err
				}
				ss[i] = s
			}
			return scenario.Concat(ss...)
		},
	})
	mustRegisterScenario(ScenarioFactory{
		Name: "interleave", Usage: "interleave:SPEC+SPEC (nested composites in [brackets])",
		Summary: "alternate rounds of the two operand scenarios, each on its own clock",
		New: func(arg string, env ScenarioEnv) (*scenario.Schedule, error) {
			parts := compositeOperands(arg)
			if len(parts) != 2 {
				return nil, fmt.Errorf("consensus: interleave wants exactly two operands, got %d", len(parts))
			}
			a, err := env.Scenarios.New(parts[0], env)
			if err != nil {
				return nil, err
			}
			b, err := env.Scenarios.New(parts[1], env)
			if err != nil {
				return nil, err
			}
			return scenario.Interleave(a, b)
		},
	})
}

// WithScenario pins the session's per-round communication graphs to the
// given schedule — the run becomes an exact, path-independent replay.
// It replaces the adversary (setting both errors) and fixes the agent
// count when no model or inputs do.
func WithScenario(s *scenario.Schedule) Option {
	return func(c *sessionConfig) error {
		if s == nil {
			return fmt.Errorf("consensus: nil scenario")
		}
		c.scenario = s
		return nil
	}
}

// WithScenarioSpec is WithScenario resolving the schedule from a spec
// string against the Scenarios registry (e.g. "partitionheal:8,2,5" or
// "trace:BASE64URL").
func WithScenarioSpec(spec string) Option {
	return func(c *sessionConfig) error {
		c.scenarioSpec = spec
		return nil
	}
}

// RunRecorded is Run plus capture: it returns the completed run together
// with the recorded schedule of the graphs actually played — adaptive
// adversaries (greedy, blockgreedy) included — replayable exactly via
// WithScenario.
func (s *Session) RunRecorded(ctx context.Context) (*Result, *scenario.Schedule, error) {
	res, err := s.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	sch, err := scenario.Recorded(s.N(), res.tr.Graphs)
	if err != nil {
		return nil, nil, err
	}
	return res, sch, nil
}

// Scenario returns the session's schedule, or nil for adversary-driven
// sessions.
func (s *Session) Scenario() *scenario.Schedule { return s.scenario }

// ScenarioGrid expands the cross product of scenario specs and algorithm
// specs into sweep-ready RunSpecs sharing one round budget — the batch
// form of "run every algorithm over every scenario". The grid is ordered
// scenario-major, so equal-shape entries tile together on the batch
// plane.
func ScenarioGrid(scenarios, algorithms []string, rounds int) []RunSpec {
	specs := make([]RunSpec, 0, len(scenarios)*len(algorithms))
	for _, sc := range scenarios {
		for _, alg := range algorithms {
			specs = append(specs, RunSpec{Scenario: sc, Algorithm: alg, Rounds: rounds})
		}
	}
	return specs
}

// ScenarioRequest is the input of RunScenario (and the /api/v1/scenario
// body): a schedule given either by registry spec or by uploaded binary
// trace (JSON: base64), an optional model to certify membership against,
// and an optional execution.
type ScenarioRequest struct {
	// Scenario is a registry spec ("churn:8,1,5,4,3"); Trace is an
	// encoded binary trace. Exactly one must be set.
	Scenario string `json:"scenario,omitempty"`
	Trace    []byte `json:"trace,omitempty"`
	// Model, when set, additionally certifies per-round model membership.
	Model string `json:"model,omitempty"`
	// Rounds is the certification and run horizon (default: the
	// schedule's Horizon).
	Rounds int `json:"rounds,omitempty"`
	// Run executes the schedule with Algorithm/Inputs when true;
	// otherwise the request only inspects and certifies.
	Run       bool      `json:"run,omitempty"`
	Algorithm string    `json:"algorithm,omitempty"`
	Inputs    []float64 `json:"inputs,omitempty"`
}

// ScenarioReport is the output of RunScenario: the schedule's shape and
// identity, its canonical trace (so a spec-built scenario can be
// downloaded and replayed elsewhere), its certificate, and — for Run
// requests — the run summary and diameter series.
type ScenarioReport struct {
	N              int                  `json:"n"`
	PrefixRounds   int                  `json:"prefix_rounds"`
	LoopRounds     int                  `json:"loop_rounds"`
	DistinctGraphs int                  `json:"distinct_graphs"`
	Fingerprint    string               `json:"fingerprint"`
	Trace          []byte               `json:"trace"`
	Certificate    scenario.Certificate `json:"certificate"`
	Summary        *RunSummary          `json:"summary,omitempty"`
	Diameters      []float64            `json:"diameters,omitempty"`
}

// RunScenario resolves, certifies, and optionally executes a scenario
// request — the engine behind the scenario tool and the /api/v1/scenario
// endpoint.
func RunScenario(ctx context.Context, req ScenarioRequest, opts ...QueryOption) (*ScenarioReport, error) {
	cfg := applyQueryOptions(opts)
	sch, err := resolveScenarioRequest(req, cfg.lib)
	if err != nil {
		return nil, err
	}
	return runScenarioResolved(ctx, sch, req, cfg.lib)
}

// runScenarioResolved is RunScenario past resolution, for callers (the
// server) that already materialized the schedule to validate it.
func runScenarioResolved(ctx context.Context, sch *scenario.Schedule, req ScenarioRequest, lib *Library) (*ScenarioReport, error) {
	var m *model.Model
	var err error
	if req.Model != "" {
		if m, err = lib.models().New(req.Model); err != nil {
			return nil, err
		}
	}
	cert, err := sch.Certify(ctx, req.Rounds, m)
	if err != nil {
		return nil, err
	}
	rep := &ScenarioReport{
		N:              sch.N(),
		PrefixRounds:   sch.PrefixLen(),
		LoopRounds:     sch.LoopLen(),
		DistinctGraphs: sch.DistinctGraphs(),
		Fingerprint:    sch.Fingerprint(),
		Trace:          sch.Encode(),
		Certificate:    cert,
	}
	if !req.Run {
		return rep, nil
	}
	rounds := req.Rounds
	if rounds <= 0 {
		rounds = sch.Horizon()
	}
	sessionOpts := []Option{WithScenario(sch), WithRounds(rounds), WithLibrary(lib)}
	if req.Algorithm != "" {
		sessionOpts = append(sessionOpts, WithAlgorithm(req.Algorithm))
	}
	if req.Model != "" {
		sessionOpts = append(sessionOpts, withResolvedModel(req.Model, m))
	}
	if req.Inputs != nil {
		sessionOpts = append(sessionOpts, WithInputs(req.Inputs...))
	}
	session, err := New(sessionOpts...)
	if err != nil {
		return nil, err
	}
	res, err := session.Run(ctx)
	if err != nil {
		return nil, err
	}
	summary := Summarize(res)
	rep.Summary = &summary
	rep.Diameters = res.Diameters()
	if err := summary.checkFinite(rep.Diameters...); err != nil {
		return nil, err
	}
	return rep, nil
}

// resolveScenarioRequest materializes the request's schedule from
// whichever of the two sources is given.
func resolveScenarioRequest(req ScenarioRequest, lib *Library) (*scenario.Schedule, error) {
	switch {
	case req.Scenario != "" && req.Trace != nil:
		return nil, fmt.Errorf("consensus: scenario request sets both a spec and a trace")
	case req.Scenario != "":
		return lib.scenarios().New(req.Scenario, ScenarioEnv{Models: lib.models(), Scenarios: lib.scenarios()})
	case req.Trace != nil:
		return scenario.Decode(req.Trace)
	default:
		return nil, fmt.Errorf("consensus: scenario request needs a spec or a trace")
	}
}
