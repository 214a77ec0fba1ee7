package valency

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
)

// Params bundles the tunables of a valency Engine. The zero value is not
// useful; DefaultParams supplies the defaults.
type Params struct {
	// Depth is the exhaustive exploration depth of the execution tree.
	Depth int
	// Settle caps the rounds a constant-graph continuation is run when
	// hunting for its limit.
	Settle int
	// Tol is the diameter below which a continuation counts as converged.
	Tol float64
	// Convex asserts the algorithm under analysis is a convex combination
	// algorithm, enabling the outer bound.
	Convex bool
}

// DefaultParams returns the engine defaults for the given depth:
// Settle = 512, Tol = 1e-9.
func DefaultParams(depth int, convex bool) Params {
	return Params{Depth: depth, Settle: 512, Tol: 1e-9, Convex: convex}
}

// CacheStats is a snapshot of the engine's transposition-table counters.
type CacheStats struct {
	// InnerHits/InnerMisses count memoized subtree lookups in Inner walks.
	InnerHits, InnerMisses uint64
	// OuterHits/OuterMisses count memoized subtree lookups in Outer walks.
	OuterHits, OuterMisses uint64
	// LimitHits/LimitMisses count memoized constant-graph limit lookups.
	LimitHits, LimitMisses uint64
	// InnerEntries/OuterEntries/LimitEntries are current table sizes.
	InnerEntries, OuterEntries, LimitEntries int
}

// HitRate returns the overall cache hit rate across all three tables, or
// 0 when nothing was looked up yet.
func (s CacheStats) HitRate() float64 {
	hits := s.InnerHits + s.OuterHits + s.LimitHits
	total := hits + s.InnerMisses + s.OuterMisses + s.LimitMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Engine is the memoized, zero-allocation valency exploration engine. It
// computes the same certified Inner/Outer interval bounds as the naive
// recursive walks ReferenceInner and ReferenceOuter, its
// differential-testing oracles, but
//
//   - answers the constant-graph limit in closed form where the graph is
//     rooted at one agent r that hears only itself and the algorithm
//     declares core.SelfRootKeeper: the limit is y_r, exact, read before
//     any fingerprint, lock, table probe or settle (self roots are found
//     once, in NewEngine; the capability once per query);
//   - memoizes Inner/Outer subtree results per (configuration
//     fingerprint, remaining depth) and constant-graph limits per
//     (fingerprint, graph index), collapsing the many pattern prefixes
//     that reach identical configurations;
//   - does not memoize an Inner leaf whose limits cost at most one
//     limit-table probe (see walker.inner);
//   - passes each node's constant-G limit down to its child G.C: a settle
//     from C that converges at round r ≥ 1 steps through G.C, so the
//     child's own constant-G settle converges on the same configuration at
//     round r−1, and the walk skips it;
//   - walks the tree on flat state: a query bridges its root into a
//     core.DenseState once (core.AsDense and Config.WriteDense), and
//     every node below it is stepped (core.DenseStep), fingerprinted
//     (the dense fingerprint, byte-identical to the Agent one), read
//     (its Y, which is its outputs) and settled (core.Settle, on a copy
//     of the node) on the dense path;
//   - walks a root that cannot bridge (an algorithm without a dense
//     stepper, such as core.AgentsOnly's and the rb-* algorithms, or
//     agents that cannot export their state) through the same recursion
//     on Agent configurations (Config.StepInto and the Agent settle
//     loop): the reference the dense path is tested against. The path is
//     chosen once per query, by capability alone, and the walk branches
//     on it only in its four node primitives (step, fingerprint,
//     outputs, settle);
//   - keeps every level's node in a per-walker arena slot, allocating
//     nothing per node after warm-up.
//
// Each query walks its tree sequentially, in model-index order, on one
// walker; callers that want parallelism run queries concurrently (one
// per spec in a sweep, one per request in the server). The tree walks
// (Inner, Outer, SuccessorInners) take a context, polled every
// pollEvery node visits: a cancelled walk returns the context's error
// and stores no further table entry, so no partial result is ever
// memoized. LimitOfConstant (one settle) and SuccessorValueDiameters
// (one step per model graph) do bounded work and take none.
//
// An Engine is safe for concurrent use. Its three memo tables (inner,
// outer, limits) persist across calls, which is what the greedy
// adversaries exploit: the next round's successors are this round's
// level-2 nodes, so when it re-explores the chosen successor's subtree
// (one level deeper), the settles that this round ran there hit the
// depth-independent limit table, which holds one entry per settle;
// closed-form limits are neither stored nor counted as hits or misses.
// Identical repeated queries are answered from the root entry of the
// inner/outer tables; deeper re-explorations miss those, since their
// keys include the remaining depth. A query's root is walked as level 0
// of the same recursion as every other node, so a depth-0 query follows
// the leaf rules: an Inner root is stored only where walker.inner stores
// leaves, and an Outer root is the hull, unprobed. Each table is bounded
// by memoBudget bytes and, when full, evicts every entry and keeps
// memoizing. Every memoized value is a pure function of its key, so
// eviction moves the cache counters but never a bound.
//
// Caches are only keyed by agent state, round, and depth — NOT by
// algorithm identity — so an Engine must only ever see configurations of
// one algorithm. Agent fingerprints carry type tags, so mixing algorithms
// falls back to cache misses rather than wrong results, but sharing an
// engine across algorithms wastes its tables. Configurations whose agents
// are not fingerprintable are explored without memoization (still using
// the zero-allocation arena).
type Engine struct {
	model  *model.Model
	params Params
	// selfRoots[k] is the agent that model graph k is rooted at when it
	// hears only itself, or -1 (see selfRoots).
	selfRoots []int
	// cheapLeaves is set when at most one model graph has no self root,
	// so a leaf of a query with a closed-form keeper probes the limit
	// table for at most one of its limits.
	cheapLeaves bool

	// mu guards the memo tables and the walker free list.
	mu      sync.Mutex
	inner   memoTable[Interval]
	outer   memoTable[Interval]
	limits  memoTable[limitEntry]
	walkers []*walker
}

// limitEntry is the outcome of one settle: the limit of the
// constant-graph continuation and, when it converged (ok), the round at
// which it did. The round saturates at MaxInt32, which can only stop
// inheritance early. A closed-form limit is an entry of round 0.
type limitEntry struct {
	limit float64
	round int32
	ok    bool
}

// converged is the entry of a settle whose outputs span [lo, hi] at
// round r.
func converged(lo, hi float64, r int) limitEntry {
	return limitEntry{limit: hullMidpoint(lo, hi), round: int32(min(r, math.MaxInt32)), ok: true}
}

// passDown returns the entry that child G_k.C inherits from C's entry for
// graph k, and whether there is one. Only a convergence at round r ≥ 1
// passes down, as a convergence at round r−1: the child's own settle
// under k visits the same configurations and converges on the same one.
// A round-0 entry does not: after a round-0 convergence the child's hull
// midpoint differs, and a closed form the child answers itself. Nor does
// a failed settle, since the child has its own full Settle budget ahead.
func (l limitEntry) passDown() (limitEntry, bool) {
	if !l.ok || l.round < 1 {
		return limitEntry{}, false
	}
	l.round--
	return l, true
}

// NewEngine returns an engine for the model with the given parameters.
// Its memo tables start empty and grow on demand up to memoBudget bytes
// each.
func NewEngine(m *model.Model, p Params) *Engine { return newEngine(m, p, memoBudget) }

func newEngine(m *model.Model, p Params, budget int) *Engine {
	roots := selfRoots(m)
	rootless := 0
	for _, r := range roots {
		if r < 0 {
			rootless++
		}
	}
	return &Engine{
		model:       m,
		params:      p,
		selfRoots:   roots,
		cheapLeaves: rootless <= 1,
		inner:       memoTable[Interval]{budget: budget},
		outer:       memoTable[Interval]{budget: budget},
		limits:      memoTable[limitEntry]{budget: budget},
	}
}

// Model returns the network model the engine explores.
func (e *Engine) Model() *model.Model { return e.model }

// Params returns the engine's parameters.
func (e *Engine) Params() Params { return e.params }

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CacheStats{
		InnerHits:    e.inner.hits,
		InnerMisses:  e.inner.misses,
		OuterHits:    e.outer.hits,
		OuterMisses:  e.outer.misses,
		LimitHits:    e.limits.hits,
		LimitMisses:  e.limits.misses,
		InnerEntries: e.inner.used,
		OuterEntries: e.outer.used,
		LimitEntries: e.limits.used,
	}
}

// memoGet and memoPut access one of e's memo tables under its lock.
func memoGet[V any](e *Engine, t *memoTable[V], key []byte) (V, bool) {
	e.mu.Lock()
	v, hit := t.get(key)
	e.mu.Unlock()
	return v, hit
}

func memoPut[V any](e *Engine, t *memoTable[V], key []byte, v V) {
	e.mu.Lock()
	t.put(key, v)
	e.mu.Unlock()
}

// Inner returns the inner valency bound: an interval spanned by limits of
// eventually constant continuations from C. Closed-form limits are
// genuine members of Y*(C); settled ones lie within Tol/2 of one. Its
// diameter is a sound lower bound on δ(C) when both endpoints come in
// closed form, and one up to Tol otherwise. It returns ctx's error when
// ctx is done before the walk completes.
func (e *Engine) Inner(ctx context.Context, c *core.Config) (Interval, error) {
	w := e.getWalker(ctx, c, selfRootKeeper(c))
	defer e.putWalker(w)
	return w.result(w.inner(0, e.params.Depth, -1, limitEntry{}, false))
}

// Outer returns the outer valency bound for convex combination
// algorithms: an interval provably containing Y*(C). It panics when the
// engine was not built for a convex algorithm, because the hull argument
// is unsound then. It returns ctx's error when ctx is done before the
// walk completes.
func (e *Engine) Outer(ctx context.Context, c *core.Config) (Interval, error) {
	if !e.params.Convex {
		panic("valency: Outer bound requires a convex combination algorithm")
	}
	w := e.getWalker(ctx, c, nil)
	defer e.putWalker(w)
	return w.result(w.outer(0, e.params.Depth))
}

// DeltaLower returns a sound lower bound on δ(C) = diam(Y*(C)): the
// diameter of Inner.
func (e *Engine) DeltaLower(ctx context.Context, c *core.Config) (float64, error) {
	iv, err := e.Inner(ctx, c)
	return iv.Diameter(), err
}

// DeltaUpper returns a sound upper bound on δ(C) for convex algorithms:
// the diameter of Outer.
func (e *Engine) DeltaUpper(ctx context.Context, c *core.Config) (float64, error) {
	iv, err := e.Outer(ctx, c)
	return iv.Diameter(), err
}

// LimitOfConstant returns the common limit of the continuation that
// repeats model graph k forever from c. When graph k is rooted at one
// agent r that hears only itself and c's algorithm declares
// core.SelfRootKeeper, the limit is y_r, exact. Otherwise the
// continuation is settled until its outputs span at most Tol, and the
// limit is the midpoint of that hull, within Tol/2 of the true one;
// settled limits are memoized. ok is false when the settle did not
// contract below Tol within Settle rounds.
func (e *Engine) LimitOfConstant(c *core.Config, k int) (limit float64, ok bool) {
	w := e.getWalker(context.Background(), c, selfRootKeeper(c))
	defer e.putWalker(w)
	lim := w.limit(0, k)
	return lim.limit, lim.ok
}

// SuccessorInners returns, for each model graph G, the inner valency
// bound of the successor configuration G.C — the branching data the
// paper's greedy adversaries act on. Each successor's subtree is explored
// at full engine depth. C's own limit under G is resolved first, so G.C
// can inherit it; the limits the subtree settles land in the shared,
// depth-independent limit table — the reuse that makes the adversary's
// next round cheap, since its successors are this round's level-2 nodes.
// It returns ctx's error, and no intervals, when ctx is done before the
// walk completes.
func (e *Engine) SuccessorInners(ctx context.Context, c *core.Config) ([]Interval, error) {
	w := e.getWalker(ctx, c, selfRootKeeper(c))
	defer e.putWalker(w)
	// Successors that are unmemoized leaves count their inherited limits
	// by c's fingerprintability.
	var counted bool
	w.key, counted = w.fingerprint(w.nodes[0], w.key[:0])
	out := make([]Interval, e.model.Size())
	for k := range out {
		if w.cancelled() {
			return nil, w.err
		}
		lim := w.limit(0, k)
		w.step(0, k)
		out[k] = w.inner(1, e.params.Depth, k, lim, counted)
	}
	if w.err != nil {
		return nil, w.err
	}
	return out, nil
}

// SuccessorValueDiameters returns the plain value diameter Δ(y) of every
// successor G.C, computed on the walker's scratch slot — no
// per-candidate materialization. It is the greedy adversary's
// zero-valency fallback ranking.
func (e *Engine) SuccessorValueDiameters(c *core.Config) []float64 {
	w := e.getWalker(context.Background(), c, nil)
	defer e.putWalker(w)
	out := make([]float64, e.model.Size())
	for k := range out {
		w.step(0, k)
		lo, hi := core.Hull(w.outputs(w.nodes[1]))
		out[k] = hi - lo
	}
	return out
}

// getWalker pops a walker arena from the free list, or builds one, and
// binds it to a query: its context, its root c and its closed-form
// capability keeper (nil for none).
func (e *Engine) getWalker(ctx context.Context, c *core.Config, keeper core.SelfRootKeeper) *walker {
	if c.N() != e.model.N() {
		panic(fmt.Sprintf("valency: %d-agent configuration on a %d-agent model", c.N(), e.model.N()))
	}
	var w *walker
	e.mu.Lock()
	if n := len(e.walkers); n > 0 {
		w = e.walkers[n-1]
		e.walkers = e.walkers[:n-1]
	}
	e.mu.Unlock()
	if w == nil {
		w = &walker{e: e}
	}
	w.keeper = keeper
	w.ctx, w.done, w.polls = ctx, ctx.Done(), 0
	w.bind(c)
	return w
}

// putWalker returns w to the free list and adds its inherited limits to
// the limit table's hits.
func (e *Engine) putWalker(w *walker) {
	w.nodes[0].cfg = nil // the caller's configuration, on the Agent path
	w.ctx, w.done, w.err = nil, nil, nil
	e.mu.Lock()
	e.limits.hits += w.inherited
	w.inherited = 0
	e.walkers = append(e.walkers, w)
	e.mu.Unlock()
}

// appendDepth suffixes a memo key with the remaining depth.
func appendDepth(key []byte, depth int) []byte {
	return binary.LittleEndian.AppendUint32(key, uint32(depth))
}

// appendGraph suffixes a memo key with a model graph index.
func appendGraph(key []byte, k int) []byte {
	return binary.LittleEndian.AppendUint32(key, uint32(k))
}

// pollEvery is how many node visits a walk makes between two polls of a
// cancellable context. One visit costs tens of nanoseconds to tens of
// microseconds (a step, or a node's settles), so a cancelled walk stops
// within a few milliseconds, and the poll is far below the noise of a
// walk that is never cancelled (PERF.md, "Dense valency walk").
const pollEvery = 256

// walker is one query's exploration arena: a slot per tree level, the
// settle loops' scratch, and the query's path, closed-form capability
// and context. Walkers allocate only while warming up (growing to the
// depth actually visited) and are recycled through the engine's free
// list, so concurrent queries on one engine each hold their own.
type walker struct {
	e *Engine
	// keeper is the closed-form capability of the query's algorithm,
	// resolved once per query (nil when it declares none).
	keeper core.SelfRootKeeper
	// dense is the query's dense stepper, nil when the query walks the
	// Agent path; df is its fingerprinter (nil when it has none). Both
	// are resolved once per query, when its root is bridged.
	dense core.DenseAlgorithm
	df    core.DenseFingerprinter
	// nodes[i] is the slot of tree level i; nodes[0] holds the root.
	nodes []*node
	// settleSt is the copy of a node that core.Settle overwrites, and
	// settle that call's scratch.
	settleSt core.DenseState
	settle   core.SettleScratch
	// settleA/settleB ping-pong through an Agent-path settle.
	settleA, settleB core.Config
	// key is the limit-key scratch buffer.
	key []byte
	// inherited counts the limits answered by inheritance where a table
	// lookup would have been counted; putWalker adds it to the hits.
	inherited uint64
	// ctx is the query's context and done its Done channel, nil when the
	// context can never be cancelled; polls counts the node visits left
	// before the next poll of ctx.Err, and err is ctx's error once a
	// poll saw it.
	ctx   context.Context
	done  <-chan struct{}
	polls int
	err   error
}

// node is the slot of one tree level: the configuration the walk is at
// on that level, as flat state on the dense path or as an Agent
// configuration, and what the walk has read from it.
type node struct {
	// st is the configuration on the dense path.
	st core.DenseState
	// cfg is the configuration on the Agent path: the caller's at the
	// root, own below it.
	cfg *core.Config
	own core.Config
	// out holds the Agent path's outputs once read (outRead).
	out     []float64
	outRead bool
	// key holds the node's inner or outer memo key across the recursion
	// into its subtree (the key is needed again for the store after the
	// walk).
	key []byte
	// lims holds the node's constant-graph limits across the recursion
	// into its subtrees.
	lims []limitEntry
}

// node returns the slot of tree level i.
func (w *walker) node(i int) *node {
	for len(w.nodes) <= i {
		w.nodes = append(w.nodes, &node{})
	}
	return w.nodes[i]
}

// bind makes c the root of the walker's query and chooses the query's
// path: dense when c's algorithm has a dense stepper and every agent
// exports its state into the root slot, Agent otherwise.
func (w *walker) bind(c *core.Config) {
	root := w.node(0)
	w.dense, w.df = nil, nil
	if d, ok := core.AsDense(c.Algorithm()); ok && c.WriteDense(&root.st) {
		w.dense = d
		w.df, _ = d.(core.DenseFingerprinter)
	} else {
		root.cfg = c
	}
	root.outRead = false
}

// The four node primitives below are the only places the walk branches
// on its path.

// step writes the successor of level i's node under model graph k into
// level i+1's slot.
func (w *walker) step(i, k int) {
	from, to := w.nodes[i], w.node(i+1)
	g := w.e.model.Graph(k)
	if w.dense != nil {
		core.DenseStep(w.dense, &to.st, &from.st, g)
	} else {
		from.cfg.StepInto(&to.own, g)
		to.cfg = &to.own
	}
	to.outRead = false
}

// fingerprint appends n's fingerprint to dst and reports whether n has one.
func (w *walker) fingerprint(n *node, dst []byte) ([]byte, bool) {
	if w.dense == nil {
		return n.cfg.AppendFingerprint(dst)
	}
	if w.df == nil {
		return dst, false
	}
	return n.st.AppendFingerprint(w.df, dst)
}

// outputs returns n's observable outputs: its Y on the dense path, and
// on the Agent path the agents' outputs, read once per configuration.
func (w *walker) outputs(n *node) []float64 {
	if w.dense != nil {
		return n.st.Y
	}
	if !n.outRead {
		n.out = grow(n.out, n.cfg.N())
		for i := range n.out {
			n.out[i] = n.cfg.Output(i)
		}
		n.outRead = true
	}
	return n.out
}

// settleNode settles the constant-graph-k continuation from n: it
// repeats graph k until the outputs agree within Tol, for at most Settle
// rounds. On the dense path core.Settle runs the algorithm's settle
// kernel when it has one and the generic dense loop otherwise, on a copy
// of n; the Agent loop ping-pongs the walker's scratch pair and tests
// convergence the same way.
func (w *walker) settleNode(n *node, k int) limitEntry {
	e := w.e
	g := e.model.Graph(k)
	settle, tol := e.params.Settle, e.params.Tol
	if w.dense != nil {
		w.settleSt.CopyFrom(&n.st)
		lo, hi, r, ok := core.Settle(w.dense, &w.settleSt, g, settle, tol, &w.settle)
		if !ok {
			return limitEntry{}
		}
		return converged(lo, hi, r)
	}
	cur := n.cfg
	for r := 0; ; r++ {
		if cur.Diameter() <= tol {
			lo, hi := cur.Hull()
			return converged(lo, hi, r)
		}
		if r == settle {
			return limitEntry{}
		}
		next := &w.settleA
		if cur == next {
			next = &w.settleB
		}
		cur.StepInto(next, g)
		cur = next
	}
}

// grow returns buf resliced to n entries, reallocated when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// cancelled reports whether the query's context was seen done, polling
// it every pollEvery node visits; a context that can never be cancelled
// costs one branch.
func (w *walker) cancelled() bool {
	if w.done == nil {
		return false
	}
	return w.poll()
}

func (w *walker) poll() bool {
	if w.err != nil {
		return true
	}
	if w.polls > 0 {
		w.polls--
		return false
	}
	w.polls = pollEvery - 1
	w.err = w.ctx.Err()
	return w.err != nil
}

// result is a query's answer: the walk's interval, or the context's
// error when the walk was cut short.
func (w *walker) result(iv Interval) (Interval, error) {
	if w.err != nil {
		return Interval{}, w.err
	}
	return iv, nil
}

// inner is the memoized recursion behind Inner: the union of every
// constant-graph limit from level i's node and, while depth remains, of
// the subtrees below every successor. The node was reached by graph
// from, parent is its parent's limit entry for that graph, and counted
// is whether the parent was fingerprintable. A query's root is level 0,
// reached by no graph (from −1), so it inherits nothing. The node's
// constant-graph limits are all resolved (allLimits) before any subtree
// is walked, so each child G_k.C can inherit the node's limit for k.
//
// A leaf (depth 0) of a query with a closed-form keeper on an engine
// with cheapLeaves is neither fingerprinted, probed nor stored: its
// Inner is the hull of its limits, at most one of which needs a
// limit-table probe (none when inherited), so a hit would save no more
// than the probe and store cost. Its limits count as its
// parent's did: fingerprintability follows the agents' types, which
// stepping keeps. Where several graphs settle (nonsplit:3 has 27 of 39),
// a leaf hit saves that many probes, and leaves stay memoized.
//
// Once the query's context is seen done the walk unwinds without
// storing anything.
func (w *walker) inner(i, depth, from int, parent limitEntry, counted bool) Interval {
	if w.cancelled() {
		return emptyInterval()
	}
	e := w.e
	n := w.nodes[i]
	memo := false
	if depth > 0 || w.keeper == nil || !e.cheapLeaves {
		n.key, memo = w.fingerprint(n, n.key[:0])
		counted = memo
		if memo {
			n.key = appendDepth(n.key, depth)
			if iv, hit := memoGet(e, &e.inner, n.key); hit {
				return iv
			}
		}
	}
	iv := emptyInterval()
	lims := w.allLimits(i, from, parent, counted)
	for k := range lims {
		if lims[k].ok {
			iv = iv.Union(Interval{Lo: lims[k].limit, Hi: lims[k].limit})
		}
		if depth > 0 {
			w.step(i, k)
			iv = iv.Union(w.inner(i+1, depth-1, k, lims[k], counted))
			if w.err != nil {
				return iv
			}
		}
	}
	if memo {
		memoPut(e, &e.inner, n.key, iv)
	}
	return iv
}

// allLimits computes the constant-graph limit of every model graph from
// level i's node — the per-node settle fan-out — returning out[k] =
// limit(i, k) in the node's slot. The limit for graph from is inherited
// from parent when it passes down; counted says whether that answer
// counts as a table hit, as a lookup of a fingerprintable node would.
func (w *walker) allLimits(i, from int, parent limitEntry, counted bool) []limitEntry {
	n := w.nodes[i]
	n.lims = grow(n.lims, w.e.model.Size())
	out := n.lims
	inh, inherits := parent.passDown()
	for k := range out {
		if k == from && inherits {
			out[k] = inh
			if counted {
				w.inherited++
			}
			continue
		}
		out[k] = w.limit(i, k)
	}
	return out
}

// outer is the memoized recursion behind Outer: the union of the
// subtrees below every successor of level i's node while depth remains,
// and the hull of the node at a leaf, which is neither fingerprinted nor
// probed. Once the query's context is seen done the walk unwinds without
// storing anything.
func (w *walker) outer(i, depth int) Interval {
	if w.cancelled() {
		return emptyInterval()
	}
	n := w.nodes[i]
	if depth == 0 {
		lo, hi := core.Hull(w.outputs(n))
		return Interval{Lo: lo, Hi: hi}
	}
	e := w.e
	var memo bool
	n.key, memo = w.fingerprint(n, n.key[:0])
	if memo {
		n.key = appendDepth(n.key, depth)
		if iv, hit := memoGet(e, &e.outer, n.key); hit {
			return iv
		}
	}
	iv := emptyInterval()
	for k := 0; k < e.model.Size(); k++ {
		w.step(i, k)
		iv = iv.Union(w.outer(i+1, depth-1))
		if w.err != nil {
			return iv
		}
	}
	if memo {
		memoPut(e, &e.outer, n.key, iv)
	}
	return iv
}

// limit returns the limit of the constant-graph-k continuation from
// level i's node. When graph k has a self root and the algorithm answers
// its closed form, that is the limit, before any fingerprint, lock or
// table probe; its round 0 keeps it from passing down. Otherwise the
// limit is memoized: on a miss it settles the continuation and stores
// the outcome, one table entry per settle.
func (w *walker) limit(i, k int) limitEntry {
	e := w.e
	n := w.nodes[i]
	if r := e.selfRoots[k]; w.keeper != nil && r >= 0 {
		if y := w.outputs(n)[r]; w.keeper.SelfRootKeeps(y) {
			return limitEntry{limit: y, ok: true}
		}
	}
	var memo bool
	w.key, memo = w.fingerprint(n, w.key[:0])
	if memo {
		w.key = appendGraph(w.key, k)
		if entry, hit := memoGet(e, &e.limits, w.key); hit {
			return entry
		}
	}
	entry := w.settleNode(n, k)
	if memo {
		memoPut(e, &e.limits, w.key, entry)
	}
	return entry
}
