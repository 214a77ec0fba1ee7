package valency

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/model"
)

// Params bundles the tunables of a valency Engine. The zero value is not
// useful; DefaultParams supplies the estimator defaults.
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
	// Workers bounds the goroutines used for the top-level branch fan-out;
	// 0 means runtime.NumCPU(). 1 forces a sequential walk. Results are
	// bit-identical for every worker count: branch results are merged in
	// model-index order and every branch value is a pure function of the
	// configuration.
	Workers int
}

// DefaultParams returns the engine defaults for the given depth:
// Settle = 512, Tol = 1e-9, Workers = NumCPU.
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

// Engine is the memoized, zero-allocation, parallel valency exploration
// engine. It computes the same certified Inner/Outer interval bounds as
// the naive recursive walk (see Estimator.ReferenceInner) but
//
//   - memoizes Inner/Outer subtree results per (configuration
//     fingerprint, remaining depth) and constant-graph limits per
//     (fingerprint, graph index), collapsing the many pattern prefixes
//     that reach identical configurations;
//   - passes each node's constant-G limit down to its child G.C: a settle
//     from C that converges at round r ≥ 1 steps through G.C, so the
//     child's own constant-G settle converges on the same configuration at
//     round r−1, and the walk skips it;
//   - settles dense-capable configurations through core.Settle, which
//     runs the algorithm's settle kernel (core.DenseSettler) when it has
//     one and the generic dense loop otherwise;
//   - steps through the tree with core.StepInto on a per-walker arena of
//     scratch configurations, allocating nothing per node after warm-up;
//   - fans the top-level model branches out over a worker pool and merges
//     the per-branch intervals in model-index order, so results are
//     bit-identical to the sequential walk.
//
// An Engine is safe for concurrent use. Its three memo tables (inner,
// outer, limits) persist across calls, which is what the greedy
// adversaries exploit: the next round's successors are this round's
// level-2 nodes, so when it re-explores the chosen successor's subtree
// (one level deeper), the settles that this round ran there — with the
// table lookups themselves, most of the cost — hit the depth-independent
// limit table, which holds one entry per settle. Identical repeated
// queries are answered from the root entry of the inner/outer tables;
// deeper re-explorations miss those, since their keys include the
// remaining depth. Each table is bounded by memoBudget bytes and, when
// full, evicts every entry and keeps memoizing. Every memoized value is
// a pure function of its key, so eviction moves the cache counters but
// never a bound.
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
// inheritance early.
type limitEntry struct {
	limit float64
	round int32
	ok    bool
}

// converged is the entry of a settle whose outputs span [lo, hi] at
// round r.
func converged(lo, hi float64, r int) limitEntry {
	return limitEntry{limit: (lo + hi) / 2, round: int32(min(r, math.MaxInt32)), ok: true}
}

// passDown returns the entry that child G_k.C inherits from C's entry for
// graph k, and whether there is one. Only a convergence at round r ≥ 1
// passes down, as a convergence at round r−1: the child's own settle
// under k visits the same configurations and converges on the same one.
// A round-0 convergence does not, since the child's hull midpoint
// differs; nor does a failed settle, since the child has its own full
// Settle budget ahead.
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
	return &Engine{
		model:  m,
		params: p,
		inner:  memoTable[Interval]{budget: budget},
		outer:  memoTable[Interval]{budget: budget},
		limits: memoTable[limitEntry]{budget: budget},
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

// workerCount resolves the effective fan-out width for `branches`
// top-level tasks.
func (e *Engine) workerCount(branches int) int {
	w := e.params.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > branches {
		w = branches
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Inner returns the inner valency bound: an interval spanned by genuine
// members of Y*(C). Its diameter is a sound lower bound on δ(C).
func (e *Engine) Inner(c *core.Config) Interval {
	return e.explore(c, e.innerBranch, &e.inner)
}

// Outer returns the outer valency bound for convex combination
// algorithms: an interval provably containing Y*(C). It panics when the
// engine was not built for a convex algorithm, because the hull argument
// is unsound then.
func (e *Engine) Outer(c *core.Config) Interval {
	if !e.params.Convex {
		panic("valency: Outer bound requires a convex combination algorithm")
	}
	return e.explore(c, e.outerBranch, &e.outer)
}

// DeltaLower returns a sound lower bound on δ(C) = diam(Y*(C)).
func (e *Engine) DeltaLower(c *core.Config) float64 { return e.Inner(c).Diameter() }

// DeltaUpper returns a sound upper bound on δ(C) for convex algorithms.
func (e *Engine) DeltaUpper(c *core.Config) float64 { return e.Outer(c).Diameter() }

// explore runs one top-level walk: a root-memo check in the given table,
// then the per-branch work, then a model-index-order merge.
func (e *Engine) explore(c *core.Config, branch func(w *walker, c *core.Config, k int) Interval, memo *memoTable[Interval]) Interval {
	w := e.getWalker()
	defer e.putWalker(w)
	key, memoize := c.AppendFingerprint(w.key[:0])
	key = appendDepth(key, e.params.Depth)
	w.key = key
	if memoize {
		if iv, hit := memoGet(e, memo, key); hit {
			return iv
		}
	}
	results := make([]Interval, e.model.Size())
	e.forEachBranch(func(bw *walker, k int) { results[k] = branch(bw, c, k) })
	iv := emptyInterval()
	for _, r := range results {
		iv = iv.Union(r)
	}
	if memoize {
		memoPut(e, memo, key, iv)
	}
	return iv
}

// forEachBranch calls fn(w, k) once for every model index k, on pooled
// walkers: sequentially, or fanned out over workerCount goroutines.
func (e *Engine) forEachBranch(fn func(w *walker, k int)) {
	size := e.model.Size()
	nw := e.workerCount(size)
	if nw <= 1 {
		w := e.getWalker()
		defer e.putWalker(w)
		for k := 0; k < size; k++ {
			fn(w, k)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for i := 0; i < nw; i++ {
		go func() {
			defer wg.Done()
			w := e.getWalker()
			defer e.putWalker(w)
			for {
				k := int(atomic.AddInt64(&next, 1)) - 1
				if k >= size {
					return
				}
				fn(w, k)
			}
		}()
	}
	wg.Wait()
}

// innerBranch computes branch k's contribution to Inner(c): the limit of
// the constant-k continuation from c, plus the whole subtree below the
// successor G_k.C when depth remains.
func (e *Engine) innerBranch(w *walker, c *core.Config, k int) Interval {
	iv := emptyInterval()
	lim := w.limit(c, k)
	if lim.ok {
		iv = iv.Union(Interval{Lo: lim.limit, Hi: lim.limit})
	}
	if e.params.Depth > 0 {
		child := w.level(0)
		c.StepInto(child, e.model.Graph(k))
		iv = iv.Union(w.inner(child, e.params.Depth-1, 1, k, lim))
	}
	return iv
}

// outerBranch computes branch k's contribution to Outer(c). With Depth 0
// the walk never branches: every branch returns the hull of c itself,
// matching the reference recursion's base case.
func (e *Engine) outerBranch(w *walker, c *core.Config, k int) Interval {
	if e.params.Depth == 0 {
		lo, hi := c.Hull()
		return Interval{Lo: lo, Hi: hi}
	}
	child := w.level(0)
	c.StepInto(child, e.model.Graph(k))
	return w.outer(child, e.params.Depth-1, 1)
}

// LimitOfConstant runs the continuation that repeats model graph k
// forever from c and returns the (approximate) common limit; memoized.
// ok is false when the continuation did not contract below Tol within
// Settle rounds.
func (e *Engine) LimitOfConstant(c *core.Config, k int) (limit float64, ok bool) {
	w := e.getWalker()
	defer e.putWalker(w)
	lim := w.limit(c, k)
	return lim.limit, lim.ok
}

// SuccessorInners returns, for each model graph G, the inner valency
// bound of the successor configuration G.C — the branching data the
// paper's greedy adversaries act on. Each successor's subtree is explored
// at full engine depth. C's own limit under G is resolved first, so G.C
// can inherit it; the limits the subtree settles land in the shared,
// depth-independent limit table — the reuse that makes the adversary's
// next round cheap, since its successors are this round's level-2 nodes.
func (e *Engine) SuccessorInners(c *core.Config) []Interval {
	out := make([]Interval, e.model.Size())
	e.forEachBranch(func(w *walker, k int) {
		lim := w.limit(c, k)
		child := w.level(0)
		c.StepInto(child, e.model.Graph(k))
		out[k] = w.inner(child, e.params.Depth, 1, k, lim)
	})
	return out
}

// SuccessorValueDiameters returns the plain value diameter Δ(y) of every
// successor G.C, computed on a scratch configuration — no per-candidate
// materialization. It is the greedy adversary's zero-valency fallback
// ranking.
func (e *Engine) SuccessorValueDiameters(c *core.Config) []float64 {
	w := e.getWalker()
	defer e.putWalker(w)
	out := make([]float64, e.model.Size())
	for k := range out {
		child := w.level(0)
		c.StepInto(child, e.model.Graph(k))
		out[k] = child.Diameter()
	}
	return out
}

// getWalker pops a walker arena from the free list, or builds one.
func (e *Engine) getWalker() *walker {
	e.mu.Lock()
	if n := len(e.walkers); n > 0 {
		w := e.walkers[n-1]
		e.walkers = e.walkers[:n-1]
		e.mu.Unlock()
		return w
	}
	e.mu.Unlock()
	return &walker{e: e}
}

// putWalker returns w to the free list and adds its inherited limits to
// the limit table's hits.
func (e *Engine) putWalker(w *walker) {
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

// walker is a per-goroutine exploration arena: scratch configurations for
// every tree level and for the settle loop, plus reusable fingerprint
// buffers. Walkers allocate only while warming up (growing to the depth
// actually visited) and are recycled through the engine's free list.
type walker struct {
	e *Engine
	// levels[i] is the scratch destination configuration of tree level i.
	levels []*core.Config
	// settleA/settleB ping-pong through the constant-graph continuation.
	settleA, settleB core.Config
	// key is the general fingerprint scratch buffer.
	key []byte
	// levelKeys[i] holds level i's memo key across the recursion into its
	// subtree (the key is needed again for the store after the walk).
	levelKeys [][]byte
	// dense is a configuration bridged into dense state for core.Settle;
	// settle is that call's scratch.
	dense  core.DenseState
	settle core.SettleScratch
	// limitsLv[i] holds tree level i's constant-graph limits across the
	// recursion into its subtrees.
	limitsLv [][]limitEntry
	// inherited counts the limits answered by inheritance where a table
	// lookup would have been counted; putWalker adds it to the hits.
	inherited uint64
}

// level returns the scratch configuration of tree level i.
func (w *walker) level(i int) *core.Config {
	for len(w.levels) <= i {
		w.levels = append(w.levels, &core.Config{})
	}
	return w.levels[i]
}

// levelKey borrows level i's key buffer.
func (w *walker) levelKey(i int) []byte {
	for len(w.levelKeys) <= i {
		w.levelKeys = append(w.levelKeys, nil)
	}
	return w.levelKeys[i][:0]
}

// inner is the memoized recursion behind Inner: the union of every
// constant-graph limit from c and, while depth remains, of the subtrees
// below every successor. level indexes the walker's scratch arena; c was
// reached by graph from, and parent is its parent's limit entry for that
// graph. The node's constant-graph limits are all resolved (allLimits)
// before any subtree is walked, so each child G_k.C can inherit c's
// limit for k.
func (w *walker) inner(c *core.Config, depth, level, from int, parent limitEntry) Interval {
	e := w.e
	key, memo := c.AppendFingerprint(w.levelKey(level))
	if memo {
		key = appendDepth(key, depth)
		w.levelKeys[level] = key
		if iv, hit := memoGet(e, &e.inner, key); hit {
			return iv
		}
	}
	iv := emptyInterval()
	size := e.model.Size()
	lims := w.allLimits(c, level, from, parent, memo)
	for k := 0; k < size; k++ {
		if lims[k].ok {
			iv = iv.Union(Interval{Lo: lims[k].limit, Hi: lims[k].limit})
		}
		if depth > 0 {
			child := w.level(level)
			c.StepInto(child, e.model.Graph(k))
			iv = iv.Union(w.inner(child, depth-1, level+1, k, lims[k]))
		}
	}
	if memo {
		memoPut(e, &e.inner, w.levelKeys[level], iv)
	}
	return iv
}

// limitsBuf borrows level i's limit-result buffer, sized to the model.
func (w *walker) limitsBuf(i int) []limitEntry {
	for len(w.limitsLv) <= i {
		w.limitsLv = append(w.limitsLv, nil)
	}
	if cap(w.limitsLv[i]) < w.e.model.Size() {
		w.limitsLv[i] = make([]limitEntry, w.e.model.Size())
	}
	w.limitsLv[i] = w.limitsLv[i][:w.e.model.Size()]
	return w.limitsLv[i]
}

// allLimits computes the constant-graph limit of every model graph from
// c — the per-node settle fan-out — returning out[k] = limit(c, k). The
// limit for graph from is inherited from parent when it passes down;
// counted says whether that answer counts as a table hit, as a lookup
// of a fingerprintable c would.
func (w *walker) allLimits(c *core.Config, level, from int, parent limitEntry, counted bool) []limitEntry {
	out := w.limitsBuf(level)
	inh, inherits := parent.passDown()
	for k := range out {
		if k == from && inherits {
			out[k] = inh
			if counted {
				w.inherited++
			}
			continue
		}
		out[k] = w.limit(c, k)
	}
	return out
}

// outer is the memoized recursion behind Outer.
func (w *walker) outer(c *core.Config, depth, level int) Interval {
	if depth == 0 {
		lo, hi := c.Hull()
		return Interval{Lo: lo, Hi: hi}
	}
	e := w.e
	key, memo := c.AppendFingerprint(w.levelKey(level))
	if memo {
		key = appendDepth(key, depth)
		w.levelKeys[level] = key
		if iv, hit := memoGet(e, &e.outer, key); hit {
			return iv
		}
	}
	iv := emptyInterval()
	size := e.model.Size()
	for k := 0; k < size; k++ {
		child := w.level(level)
		c.StepInto(child, e.model.Graph(k))
		iv = iv.Union(w.outer(child, depth-1, level+1))
	}
	if memo {
		memoPut(e, &e.outer, w.levelKeys[level], iv)
	}
	return iv
}

// limit returns the memoized limit of the constant-graph-k continuation
// from c. On a miss it runs the settle loop, dense when it can, and
// stores the outcome: one table entry per settle.
func (w *walker) limit(c *core.Config, k int) limitEntry {
	e := w.e
	key, memo := c.AppendFingerprint(w.key[:0])
	w.key = appendGraph(key, k)
	if memo {
		if entry, hit := memoGet(e, &e.limits, w.key); hit {
			return entry
		}
	}
	entry, handled := w.denseLimit(c, k)
	if !handled {
		entry = w.agentLimit(c, k)
	}
	if memo {
		memoPut(e, &e.limits, w.key, entry)
	}
	return entry
}

// agentLimit is the Agent settle loop: it repeats graph k from c on the
// walker's ping-pong scratch pair until the outputs agree within Tol, for
// at most Settle rounds.
func (w *walker) agentLimit(c *core.Config, k int) limitEntry {
	e := w.e
	g := e.model.Graph(k)
	settle, tol := e.params.Settle, e.params.Tol
	cur := c
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

// denseLimit settles the constant-graph-k continuation from c on the
// dense path: core.Settle runs the algorithm's settle kernel when it has
// one and the generic dense loop otherwise, with the same convergence
// test as agentLimit. handled is false when the configuration must take
// the Agent path: algorithm not dense-capable, or agents that cannot
// export their state.
func (w *walker) denseLimit(c *core.Config, k int) (entry limitEntry, handled bool) {
	d, ok := core.AsDense(c.Algorithm())
	if !ok || !c.WriteDense(&w.dense) {
		return limitEntry{}, false
	}
	e := w.e
	lo, hi, r, ok := core.Settle(d, &w.dense, e.model.Graph(k), e.params.Settle, e.params.Tol, &w.settle)
	if !ok {
		return limitEntry{}, true
	}
	return converged(lo, hi, r), true
}
