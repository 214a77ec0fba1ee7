package consensus

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/adversary"
	"repro/internal/algorithms"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// registryIDs hands every registry a process-unique identity. Cache keys
// embed the id (never the address, which the GC may reuse) so entries
// produced under one registry can never alias another's resolutions.
var registryIDs atomic.Uint64

// A spec string is "name" or "name:arg"; splitSpec separates the two.
func splitSpec(s string) (name, arg string) {
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// FactoryInfo describes one registry entry for listings (cmd -list flags,
// the server's /api/v1/registry endpoint).
type FactoryInfo struct {
	Name    string `json:"name"`
	Usage   string `json:"usage"`
	Summary string `json:"summary"`
}

// registry is the body the four typed spec registries share: a kind
// name for error messages, a process-unique identity, and a map from
// entry name to its listing and factory. It is safe for concurrent use.
type registry[F any] struct {
	kind string
	id   uint64
	mu   sync.RWMutex
	m    map[string]registryEntry[F]
}

// registryEntry is one registered factory with its listing.
type registryEntry[F any] struct {
	info FactoryInfo
	f    F
}

// init readies an empty registry of the given kind.
func (r *registry[F]) init(kind string) {
	r.kind = kind
	r.id = registryIDs.Add(1)
	r.m = make(map[string]registryEntry[F])
}

// add registers f under info.Name; hasNew reports that f carries a
// constructor. An empty name, a missing constructor or a duplicate name
// errors.
func (r *registry[F]) add(info FactoryInfo, f F, hasNew bool) error {
	if info.Name == "" || !hasNew {
		return fmt.Errorf("consensus: %s factory needs a name and a constructor", r.kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[info.Name]; dup {
		return fmt.Errorf("consensus: %s %q already registered", r.kind, info.Name)
	}
	r.m[info.Name] = registryEntry[F]{info: info, f: f}
	return nil
}

// lookup returns the factory for a spec string ("name" or "name:arg")
// and the spec's argument part.
func (r *registry[F]) lookup(spec string) (F, string, error) {
	name, arg := splitSpec(spec)
	r.mu.RLock()
	e, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return e.f, "", fmt.Errorf("consensus: unknown %s %q (have %s)", r.kind, name, strings.Join(r.Names(), ", "))
	}
	return e.f, arg, nil
}

// Names returns the sorted registered names.
func (r *registry[F]) Names() []string {
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
func (r *registry[F]) Describe() []FactoryInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]FactoryInfo, 0, len(r.m))
	for _, e := range r.m {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AlgorithmFactory builds a core algorithm from the argument part of a
// spec string; n is the system size (used for validation).
type AlgorithmFactory struct {
	Name    string
	Usage   string
	Summary string
	New     func(arg string, n int) (core.Algorithm, error)
}

// AlgorithmRegistry maps spec names to algorithm factories. It is safe
// for concurrent use.
type AlgorithmRegistry struct {
	registry[AlgorithmFactory]
}

// NewAlgorithmRegistry returns an empty registry.
func NewAlgorithmRegistry() *AlgorithmRegistry {
	r := &AlgorithmRegistry{}
	r.init("algorithm")
	return r
}

// Register adds a factory; registering a duplicate or empty name errors.
func (r *AlgorithmRegistry) Register(f AlgorithmFactory) error {
	return r.add(FactoryInfo{Name: f.Name, Usage: f.Usage, Summary: f.Summary}, f, f.New != nil)
}

// New resolves a spec string ("name" or "name:arg") to an algorithm.
func (r *AlgorithmRegistry) New(spec string, n int) (core.Algorithm, error) {
	f, arg, err := r.lookup(spec)
	if err != nil {
		return nil, err
	}
	return f.New(arg, n)
}

// ModelFactory builds a network model from the argument part of a spec
// string.
type ModelFactory struct {
	Name    string
	Usage   string
	Summary string
	New     func(arg string) (*model.Model, error)
}

// ModelRegistry maps spec names to model factories. It is safe for
// concurrent use.
type ModelRegistry struct {
	registry[ModelFactory]
}

// NewModelRegistry returns an empty registry. Once it is collected, the
// valency engines pooled for its models are dropped.
func NewModelRegistry() *ModelRegistry {
	r := &ModelRegistry{}
	r.init("model")
	runtime.AddCleanup(r, dropEngines, r.id)
	return r
}

// Register adds a factory; registering a duplicate or empty name errors.
func (r *ModelRegistry) Register(f ModelFactory) error {
	return r.add(FactoryInfo{Name: f.Name, Usage: f.Usage, Summary: f.Summary}, f, f.New != nil)
}

// New resolves a spec string to a model.
func (r *ModelRegistry) New(spec string) (*model.Model, error) {
	f, arg, err := r.lookup(spec)
	if err != nil {
		return nil, err
	}
	return f.New(arg)
}

// AdversaryEnv is what an adversary factory gets to work with: the
// session's model (nil for model-free schedulers), the algorithm under
// attack, the system size, the RNG seed, the valency exploration depth,
// and — for valency-driven adversaries — the session's shared engine and
// the context that bounds its searches.
type AdversaryEnv struct {
	Model     *model.Model
	Algorithm core.Algorithm
	N         int
	Seed      int64
	Depth     int
	Engine    *valency.Engine
	// Context is the context of the run the source is built for (nil:
	// never cancelled). Valency-driven adversaries bound every search
	// with it, so cancelling a run stops its adversary mid-round.
	Context context.Context
}

// AdversaryFactory builds a pattern source (scheduler or adversary) from
// the argument part of a spec string and the session environment. Every
// call must return a fresh source: pattern sources are stateful and owned
// by a single run.
type AdversaryFactory struct {
	Name    string
	Usage   string
	Summary string
	// NeedsModel marks factories that require env.Model.
	NeedsModel bool
	// NeedsEngine marks valency-driven factories that require env.Engine.
	NeedsEngine bool
	New         func(arg string, env AdversaryEnv) (core.PatternSource, error)
}

// AdversaryRegistry maps spec names to adversary factories. It is safe
// for concurrent use.
type AdversaryRegistry struct {
	registry[AdversaryFactory]
}

// NewAdversaryRegistry returns an empty registry.
func NewAdversaryRegistry() *AdversaryRegistry {
	r := &AdversaryRegistry{}
	r.init("adversary")
	return r
}

// Register adds a factory; registering a duplicate or empty name errors.
func (r *AdversaryRegistry) Register(f AdversaryFactory) error {
	return r.add(FactoryInfo{Name: f.Name, Usage: f.Usage, Summary: f.Summary}, f, f.New != nil)
}

// New resolves a spec string to a fresh pattern source.
func (r *AdversaryRegistry) New(spec string, env AdversaryEnv) (core.PatternSource, error) {
	f, arg, err := r.lookup(spec)
	if err != nil {
		return nil, err
	}
	if f.NeedsModel && env.Model == nil {
		return nil, fmt.Errorf("consensus: adversary %q requires a model", f.Name)
	}
	if f.NeedsEngine && env.Engine == nil {
		return nil, fmt.Errorf("consensus: adversary %q requires a valency engine", f.Name)
	}
	return f.New(arg, env)
}

// Library bundles the four registries a session resolves its specs
// against. The zero fields of a Library fall back to the package-level
// defaults.
type Library struct {
	Algorithms  *AlgorithmRegistry
	Models      *ModelRegistry
	Adversaries *AdversaryRegistry
	Scenarios   *ScenarioRegistry
}

// algorithms returns the effective algorithm registry.
func (l *Library) algorithms() *AlgorithmRegistry {
	if l != nil && l.Algorithms != nil {
		return l.Algorithms
	}
	return Algorithms
}

// models returns the effective model registry.
func (l *Library) models() *ModelRegistry {
	if l != nil && l.Models != nil {
		return l.Models
	}
	return Models
}

// adversaries returns the effective adversary registry.
func (l *Library) adversaries() *AdversaryRegistry {
	if l != nil && l.Adversaries != nil {
		return l.Adversaries
	}
	return Adversaries
}

// scenarios returns the effective scenario registry.
func (l *Library) scenarios() *ScenarioRegistry {
	if l != nil && l.Scenarios != nil {
		return l.Scenarios
	}
	return Scenarios
}

// Algorithms, Models and Adversaries are the default registries, pre-
// populated with everything the repository implements. The cmd tools and
// examples resolve their spec flags against these.
var (
	Algorithms  = NewAlgorithmRegistry()
	Models      = NewModelRegistry()
	Adversaries = NewAdversaryRegistry()
)

// must panics on a failed built-in registration.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func noArg(name, arg string) error {
	if arg != "" {
		return fmt.Errorf("consensus: %s takes no argument, got %q", name, arg)
	}
	return nil
}

func init() {
	registerBuiltinAlgorithms()
	registerBuiltinModels()
	registerBuiltinAdversaries()
}

func registerBuiltinAlgorithms() {
	must(Algorithms.Register(AlgorithmFactory{
		Name: "midpoint", Usage: "midpoint",
		Summary: "midpoint rule (min+max)/2 — Algorithm 2, optimal 1/2 contraction on non-split models",
		New: func(arg string, n int) (core.Algorithm, error) {
			if err := noArg("midpoint", arg); err != nil {
				return nil, err
			}
			return algorithms.Midpoint{}, nil
		},
	}))
	must(Algorithms.Register(AlgorithmFactory{
		Name: "mean", Usage: "mean",
		Summary: "arithmetic mean of the received values",
		New: func(arg string, n int) (core.Algorithm, error) {
			if err := noArg("mean", arg); err != nil {
				return nil, err
			}
			return algorithms.Mean{}, nil
		},
	}))
	must(Algorithms.Register(AlgorithmFactory{
		Name: "amortized", Usage: "amortized",
		Summary: "amortized midpoint — Algorithm 3, halves the diameter every n-1 rounds on rooted models",
		New: func(arg string, n int) (core.Algorithm, error) {
			if err := noArg("amortized", arg); err != nil {
				return nil, err
			}
			return algorithms.AmortizedMidpoint{}, nil
		},
	}))
	must(Algorithms.Register(AlgorithmFactory{
		Name: "twothirds", Usage: "twothirds",
		Summary: "two-thirds rule — Algorithm 1, optimal 1/3 contraction at n = 2",
		New: func(arg string, n int) (core.Algorithm, error) {
			if err := noArg("twothirds", arg); err != nil {
				return nil, err
			}
			if n != 2 {
				return nil, fmt.Errorf("consensus: twothirds requires n = 2, got %d", n)
			}
			return algorithms.TwoThirds{}, nil
		},
	}))
	must(Algorithms.Register(AlgorithmFactory{
		Name: "selfweighted", Usage: "selfweighted:ALPHA",
		Summary: "keep weight alpha on the own value, spread 1-alpha over the heard values",
		New: func(arg string, n int) (core.Algorithm, error) {
			a, err := strconv.ParseFloat(arg, 64)
			if err != nil || a < 0 || a > 1 {
				return nil, fmt.Errorf("consensus: selfweighted needs alpha in [0,1], got %q", arg)
			}
			return algorithms.SelfWeighted{Alpha: a}, nil
		},
	}))
	must(Algorithms.Register(AlgorithmFactory{
		Name: "quantized", Usage: "quantized:Q",
		Summary: "quantized midpoint on the grid Q·Z — reference [9], exact termination on grid inputs",
		New: func(arg string, n int) (core.Algorithm, error) {
			q, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(q > 0) {
				return nil, fmt.Errorf("consensus: quantized needs a grid spacing Q > 0, got %q", arg)
			}
			return algorithms.QuantizedMidpoint{Q: q}, nil
		},
	}))
	must(Algorithms.Register(AlgorithmFactory{
		Name: "floodroot", Usage: "floodroot:ROOT",
		Summary: "exact consensus by flooding the designated common root's value (Theorem 19 models)",
		New: func(arg string, n int) (core.Algorithm, error) {
			root := 0
			if arg != "" {
				r, err := strconv.Atoi(arg)
				if err != nil {
					return nil, fmt.Errorf("consensus: floodroot needs an agent index, got %q", arg)
				}
				root = r
			}
			if root < 0 || root >= n {
				return nil, fmt.Errorf("consensus: floodroot root %d out of range [0,%d)", root, n)
			}
			return algorithms.FloodRoot{Root: root}, nil
		},
	}))
	must(Algorithms.Register(AlgorithmFactory{
		Name: "rb-midpoint", Usage: "rb-midpoint",
		Summary: "round-based asynchronous midpoint embedded in the Heard-Of model (Section 8.1)",
		New: func(arg string, n int) (core.Algorithm, error) {
			if err := noArg("rb-midpoint", arg); err != nil {
				return nil, err
			}
			return async.AsCoreAlgorithm("rb-midpoint", async.MidpointUpdate), nil
		},
	}))
	must(Algorithms.Register(AlgorithmFactory{
		Name: "rb-selectedmean", Usage: "rb-selectedmean:F",
		Summary: "Fekete-style selected mean for up to F crashes — the Theorem 6 round-based baseline",
		New: func(arg string, n int) (core.Algorithm, error) {
			f, err := strconv.Atoi(arg)
			if err != nil || f < 1 {
				return nil, fmt.Errorf("consensus: rb-selectedmean needs F >= 1, got %q", arg)
			}
			return async.AsCoreAlgorithm(fmt.Sprintf("rb-selected-mean(f=%d)", f), async.SelectedMeanUpdate(f)), nil
		},
	}))
}

// parseN parses a node count in 1..graph.MaxNodes, the range every graph
// constructor accepts.
func parseN(arg string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil || n < 1 || n > graph.MaxNodes {
		return 0, fmt.Errorf("consensus: bad node count %q (want 1..%d)", arg, graph.MaxNodes)
	}
	return n, nil
}

func parseNF(arg string) (int, int, error) {
	parts := strings.Split(arg, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("consensus: want N,F, got %q", arg)
	}
	n, err := parseN(parts[0])
	if err != nil {
		return 0, 0, err
	}
	f, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil || f < 1 {
		return 0, 0, fmt.Errorf("consensus: bad crash count %q", parts[1])
	}
	return n, f, nil
}

// parseGraphSpec parses "N;A>B,C>D,..." into a graph with the listed
// edges (self-loops are always present).
func parseGraphSpec(arg string) (graph.Graph, error) {
	parts := strings.SplitN(arg, ";", 2)
	n, err := parseN(parts[0])
	if err != nil {
		return graph.Graph{}, err
	}
	var edges [][2]int
	if len(parts) == 2 && parts[1] != "" {
		for _, e := range strings.Split(parts[1], ",") {
			ft := strings.SplitN(e, ">", 2)
			if len(ft) != 2 {
				return graph.Graph{}, fmt.Errorf("consensus: malformed edge %q (want A>B)", e)
			}
			from, err := strconv.Atoi(strings.TrimSpace(ft[0]))
			if err != nil {
				return graph.Graph{}, fmt.Errorf("consensus: edge %q: %v", e, err)
			}
			to, err := strconv.Atoi(strings.TrimSpace(ft[1]))
			if err != nil {
				return graph.Graph{}, fmt.Errorf("consensus: edge %q: %v", e, err)
			}
			edges = append(edges, [2]int{from, to})
		}
	}
	return graph.FromEdges(n, edges...)
}

func registerBuiltinModels() {
	must(Models.Register(ModelFactory{
		Name: "twoagent", Usage: "twoagent",
		Summary: "the Figure 1 model {H0, H1, H2} on two agents",
		New: func(arg string) (*model.Model, error) {
			if err := noArg("twoagent", arg); err != nil {
				return nil, err
			}
			return model.TwoAgent(), nil
		},
	}))
	must(Models.Register(ModelFactory{
		Name: "deaf", Usage: "deaf:N",
		Summary: "deaf(K_N): the complete graph with one agent's ears removed, per agent (Section 5)",
		New: func(arg string) (*model.Model, error) {
			n, err := parseN(arg)
			if err != nil {
				return nil, err
			}
			return model.DeafModel(graph.Complete(n)), nil
		},
	}))
	must(Models.Register(ModelFactory{
		Name: "psi", Usage: "psi:N",
		Summary: "the Figure 2 model {Psi_0, Psi_1, Psi_2} on N >= 4 nodes",
		New: func(arg string) (*model.Model, error) {
			n, err := parseN(arg)
			if err != nil {
				return nil, err
			}
			if n < 4 {
				return nil, fmt.Errorf("consensus: psi requires n >= 4, got %d", n)
			}
			return model.PsiModel(n), nil
		},
	}))
	must(Models.Register(ModelFactory{
		Name: "rooted", Usage: "rooted:N",
		Summary: "all rooted graphs on N nodes (N <= 5)",
		New: func(arg string) (*model.Model, error) {
			n, err := parseN(arg)
			if err != nil {
				return nil, err
			}
			return model.AllRooted(n)
		},
	}))
	must(Models.Register(ModelFactory{
		Name: "nonsplit", Usage: "nonsplit:N",
		Summary: "all non-split graphs on N nodes (N <= 5)",
		New: func(arg string) (*model.Model, error) {
			n, err := parseN(arg)
			if err != nil {
				return nil, err
			}
			return model.AllNonSplit(n)
		},
	}))
	must(Models.Register(ModelFactory{
		Name: "na", Usage: "na:N,F",
		Summary: "the full asynchronous-round model N_A(N, F) (small N)",
		New: func(arg string) (*model.Model, error) {
			n, f, err := parseNF(arg)
			if err != nil {
				return nil, err
			}
			return model.FullAsyncRound(n, f)
		},
	}))
	must(Models.Register(ModelFactory{
		Name: "asyncchain", Usage: "asyncchain:N,F",
		Summary: "the Lemma 24 chain sub-model of N_A(N, F)",
		New: func(arg string) (*model.Model, error) {
			n, f, err := parseNF(arg)
			if err != nil {
				return nil, err
			}
			return model.AsyncChain(n, f)
		},
	}))
	must(Models.Register(ModelFactory{
		Name: "edges", Usage: "edges:N;A>B,C>D",
		Summary: "a singleton model with the given edge list",
		New: func(arg string) (*model.Model, error) {
			g, err := parseGraphSpec(arg)
			if err != nil {
				return nil, err
			}
			return model.New(g)
		},
	}))
}

// parseProbability parses an edge probability in (0, 1].
func parseProbability(name, arg string) (float64, error) {
	p, err := strconv.ParseFloat(arg, 64)
	if err != nil || !(p > 0) || p > 1 {
		return 0, fmt.Errorf("consensus: %s needs an edge probability in (0,1], got %q", name, arg)
	}
	return p, nil
}

func registerBuiltinAdversaries() {
	must(Adversaries.Register(AdversaryFactory{
		Name: "greedy", Usage: "greedy",
		Summary:    "the valency-splitting adversary of Theorems 1, 2 and 5: always play the successor with the largest certified valency diameter",
		NeedsModel: true, NeedsEngine: true,
		New: func(arg string, env AdversaryEnv) (core.PatternSource, error) {
			if err := noArg("greedy", arg); err != nil {
				return nil, err
			}
			return &adversary.Greedy{Eng: env.Engine, Ctx: env.Context}, nil
		},
	}))
	must(Adversaries.Register(AdversaryFactory{
		Name: "blockgreedy", Usage: "blockgreedy",
		Summary:    "the Theorem 3 block adversary: choose among whole sigma_i blocks of n-2 Psi_i graphs (Psi models only)",
		NeedsModel: true, NeedsEngine: true,
		New: func(arg string, env AdversaryEnv) (core.PatternSource, error) {
			if err := noArg("blockgreedy", arg); err != nil {
				return nil, err
			}
			b, err := adversary.NewBlockGreedy(env.Engine, adversary.SigmaBlocks(env.N))
			if err != nil {
				return nil, err
			}
			b.Ctx = env.Context
			return b, nil
		},
	}))
	must(Adversaries.Register(AdversaryFactory{
		Name: "random", Usage: "random",
		Summary:    "a uniformly random member of the model every round, from the session seed",
		NeedsModel: true,
		New: func(arg string, env AdversaryEnv) (core.PatternSource, error) {
			if err := noArg("random", arg); err != nil {
				return nil, err
			}
			return core.RandomFromModel{Model: env.Model, Rng: rand.New(rand.NewSource(env.Seed))}, nil
		},
	}))
	must(Adversaries.Register(AdversaryFactory{
		Name: "cycle", Usage: "cycle",
		Summary:    "the model's graphs in round-robin order",
		NeedsModel: true,
		New: func(arg string, env AdversaryEnv) (core.PatternSource, error) {
			if err := noArg("cycle", arg); err != nil {
				return nil, err
			}
			return core.Cycle{Graphs: env.Model.Graphs()}, nil
		},
	}))
	must(Adversaries.Register(AdversaryFactory{
		Name: "fixed", Usage: "fixed:K",
		Summary:    "the model's graph K every round (default 0) — the classical fixed-topology setting",
		NeedsModel: true,
		New: func(arg string, env AdversaryEnv) (core.PatternSource, error) {
			k := 0
			if arg != "" {
				var err error
				if k, err = strconv.Atoi(arg); err != nil {
					return nil, fmt.Errorf("consensus: fixed needs a graph index, got %q", arg)
				}
			}
			if k < 0 || k >= env.Model.Size() {
				return nil, fmt.Errorf("consensus: fixed graph index %d out of range [0,%d)", k, env.Model.Size())
			}
			return core.Fixed{G: env.Model.Graph(k)}, nil
		},
	}))
	must(Adversaries.Register(AdversaryFactory{
		Name: "randomrooted", Usage: "randomrooted:P",
		Summary: "a fresh random rooted graph with edge probability P every round (model-free)",
		New: func(arg string, env AdversaryEnv) (core.PatternSource, error) {
			p, err := parseProbability("randomrooted", arg)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(env.Seed))
			n := env.N
			return core.ObliviousFunc(func(int) graph.Graph {
				return graph.RandomRooted(rng, n, p)
			}), nil
		},
	}))
	must(Adversaries.Register(AdversaryFactory{
		Name: "randomnonsplit", Usage: "randomnonsplit:P",
		Summary: "a fresh random non-split graph with edge probability P every round (model-free)",
		New: func(arg string, env AdversaryEnv) (core.PatternSource, error) {
			p, err := parseProbability("randomnonsplit", arg)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(env.Seed))
			n := env.N
			return core.ObliviousFunc(func(int) graph.Graph {
				return graph.RandomNonSplit(rng, n, p)
			}), nil
		},
	}))
}

// ParseFloats parses a comma-separated float list ("0, 1, 0.5").
func ParseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("consensus: empty float list")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("consensus: bad float %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
