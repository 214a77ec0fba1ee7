package valency

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
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
//   - pre-fills the limit table along every settle chain: repeating graph
//     G from C visits exactly the configurations G.C, G².C, ... whose own
//     constant-G limits coincide with C's, so one settle loop resolves the
//     whole chain — the dominant cost of the naive walk;
//   - steps through the tree with core.StepInto on a per-walker arena of
//     scratch configurations, allocating nothing per node after warm-up;
//   - fans the top-level model branches out over a worker pool and merges
//     the per-branch intervals in model-index order, so results are
//     bit-identical to the sequential walk.
//
// An Engine is safe for concurrent use. Its three memo tables (inner,
// outer, limits) persist across calls, which is what the greedy
// adversaries exploit: when the next round re-explores the chosen
// successor's subtree (one level deeper), all of its constant-graph
// settle loops — the dominant cost — hit the depth-independent limit
// table. Identical repeated queries are answered from the root entry of
// the inner/outer tables; deeper re-explorations miss those, since their
// keys include the remaining depth. Each table is bounded by memoBudget
// bytes and, when full, evicts every entry and keeps memoizing. Every
// memoized value is a pure function of its key, so eviction moves the
// cache counters but never a bound.
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

type limitEntry struct {
	limit float64
	ok    bool
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

// ResetCaches drops all memoized results, their memory, and the
// counters; the walker arenas are kept.
func (e *Engine) ResetCaches() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.inner = memoTable[Interval]{budget: e.inner.budget}
	e.outer = memoTable[Interval]{budget: e.outer.budget}
	e.limits = memoTable[limitEntry]{budget: e.limits.budget}
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
	if limit, ok := w.limit(c, k); ok {
		iv = iv.Union(Interval{Lo: limit, Hi: limit})
	}
	if e.params.Depth > 0 {
		child := w.level(0)
		c.StepInto(child, e.model.Graph(k))
		iv = iv.Union(w.inner(child, e.params.Depth-1, 1))
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
	return w.limit(c, k)
}

// SuccessorInners returns, for each model graph G, the inner valency
// bound of the successor configuration G.C — the branching data the
// paper's greedy adversaries act on. Each successor's subtree is explored
// at full engine depth and its settle-loop limits land in the shared,
// depth-independent limit table — the reuse that makes the adversary's
// next round cheap.
func (e *Engine) SuccessorInners(c *core.Config) []Interval {
	out := make([]Interval, e.model.Size())
	e.forEachBranch(func(w *walker, k int) {
		child := w.level(0)
		c.StepInto(child, e.model.Graph(k))
		out[k] = w.inner(child, e.params.Depth, 1)
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

func (e *Engine) putWalker(w *walker) {
	e.mu.Lock()
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
// and chain lengths actually visited) and are recycled through the
// engine's free list.
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
	// chain holds the settle-loop fingerprint keys for table pre-filling.
	chain [][]byte
	// denseA/denseB ping-pong through dense settle loops; denseOut is the
	// observable-output scratch for their convergence checks.
	denseA, denseB core.DenseState
	denseOut       []float64
	// batch is the batched-settle arena: one core.BatchRunner stepping
	// every unresolved constant-graph continuation of a tree node
	// together, with per-run chain recording (settleRuns) and the
	// per-level result buffers (limitsLv) the recursion reads from.
	batch      *core.BatchRunner
	settleRuns []batchSettleRun
	limitsLv   [][]limitEntry
	resolved   []bool
	keepBuf    []bool
	gsBuf      []graph.Graph
}

// batchSettleRun is the per-run bookkeeping of a batched settle loop:
// the model graph the run repeats, its recorded chain-key prefix, and
// its verdict once resolved.
type batchSettleRun struct {
	k        int
	g        graph.Graph
	memo     bool
	chain    [][]byte
	chainLen int
	limit    float64
	ok       bool
	done     bool
}

// chainBuf borrows the run's chain buffer i.
func (r *batchSettleRun) chainBuf(i int) []byte {
	for len(r.chain) <= i {
		r.chain = append(r.chain, nil)
	}
	return r.chain[i][:0]
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
// below every successor. level indexes the walker's scratch arena. The
// node's constant-graph limits are resolved up front as one batched
// settle loop (allLimits) — the batch plane's replacement for the per-k
// sequential settles, bit-identical in values, counters, and table
// pre-fill.
func (w *walker) inner(c *core.Config, depth, level int) Interval {
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
	lims := w.allLimits(c, level)
	for k := 0; k < size; k++ {
		if lims[k].ok {
			iv = iv.Union(Interval{Lo: lims[k].limit, Hi: lims[k].limit})
		}
		if depth > 0 {
			child := w.level(level)
			c.StepInto(child, e.model.Graph(k))
			iv = iv.Union(w.inner(child, depth-1, level+1))
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
// c — the per-node settle fan-out — returning out[k] = limit(c, k). For
// a dense-capable algorithm the unresolved continuations run as one
// batched settle loop; otherwise each k takes the sequential path.
func (w *walker) allLimits(c *core.Config, level int) []limitEntry {
	out := w.limitsBuf(level)
	if w.batchLimits(c, out) {
		return out
	}
	for k := range out {
		limit, ok := w.limit(c, k)
		out[k] = limitEntry{limit: limit, ok: ok}
	}
	return out
}

// batchLimits is the batched counterpart of calling w.limit(c, k) for
// every k: one fingerprint of c covers all lookups (single lock
// acquisition), and the misses settle together as a core.BatchRunner —
// every unresolved constant-graph continuation is one run, converged
// runs are compacted out in place, and the chain pre-fill commits under
// one lock at the end. Values, hit/miss accounting, and table contents
// are identical to the sequential path; handled is false when the
// configuration must take it (no dense support, or unusable dense
// fingerprints while memoization is on).
func (w *walker) batchLimits(c *core.Config, out []limitEntry) (handled bool) {
	e := w.e
	alg := c.Algorithm()
	if alg == nil {
		return false
	}
	d, ok := core.AsDense(alg)
	if !ok {
		return false
	}
	key, memo := c.AppendFingerprint(w.key[:0])
	w.key = key
	if _, fpOK := d.(core.DenseFingerprinter); memo && !fpOK {
		return false
	}
	if !c.WriteDense(&w.denseA) {
		return false
	}

	size := e.model.Size()
	if cap(w.resolved) < size {
		w.resolved = make([]bool, size)
	}
	resolved := w.resolved[:size]
	base := len(key)
	if memo {
		e.mu.Lock()
		for k := 0; k < size; k++ {
			key = appendGraph(key[:base], k)
			out[k], resolved[k] = e.limits.get(key)
		}
		e.mu.Unlock()
		w.key = key
	} else {
		for k := 0; k < size; k++ {
			resolved[k] = false
		}
	}

	// Gather the misses into the batch (one run per unresolved graph).
	w.settleRuns = w.settleRuns[:0]
	for k := 0; k < size; k++ {
		if resolved[k] {
			continue
		}
		if len(w.settleRuns) == cap(w.settleRuns) {
			w.settleRuns = append(w.settleRuns, batchSettleRun{})
		} else {
			w.settleRuns = w.settleRuns[:len(w.settleRuns)+1]
		}
		run := &w.settleRuns[len(w.settleRuns)-1]
		run.k, run.g, run.memo, run.chainLen = k, e.model.Graph(k), memo, 0
		run.limit, run.ok, run.done = 0, false, false
	}
	if len(w.settleRuns) == 0 {
		return true
	}
	// Every missing continuation starts at c itself: when c is already
	// within tolerance, they all settle at round 0 with the same limit —
	// no stepping, no batch. This is the common case deep in the tree,
	// where most configurations are contracted. The table entries match
	// the per-k settle exactly: each chain records c as its first (and
	// only) configuration.
	n := c.N()
	if cap(w.denseOut) < n {
		w.denseOut = make([]float64, n)
	}
	dOut := w.denseOut[:n]
	d.OutputsDense(&w.denseA, dOut)
	if lo, hi := core.Hull(dOut); hi-lo <= e.params.Tol {
		limit := (lo + hi) / 2
		entry := limitEntry{limit: limit, ok: true}
		for i := range w.settleRuns {
			out[w.settleRuns[i].k] = entry
		}
		if memo {
			e.mu.Lock()
			for i := range w.settleRuns {
				key = appendGraph(key[:base], w.settleRuns[i].k)
				e.limits.put(key, entry)
			}
			e.mu.Unlock()
			w.key = key
		}
		return true
	}
	if len(w.settleRuns) == 1 {
		// A single unresolved continuation gains nothing from the batch
		// machinery; settle it on the plain dense path (the lookup and
		// its accounting already happened above).
		k := w.settleRuns[0].k
		limit, okLimit, h := w.denseLimit(c, k, memo)
		if h {
			out[k] = limitEntry{limit: limit, ok: okLimit}
			return true
		}
	}
	if w.batch == nil {
		w.batch = core.NewBatchRunnerReplicated(d, &w.denseA, len(w.settleRuns))
	} else {
		w.batch.ResetReplicated(d, &w.denseA, len(w.settleRuns))
	}
	br := w.batch
	settle, tol := e.params.Settle, e.params.Tol
	maxChain := e.params.Depth + 1
	if cap(w.keepBuf) < br.B() {
		w.keepBuf = make([]bool, br.B())
	}

	gs := w.gsBuf[:0]
	for i := 0; i < br.B(); i++ {
		gs = append(gs, w.settleRuns[br.Origin(i)].g)
	}
	for r := 0; ; r++ {
		anyDone := false
		b := br.B()
		keep := w.keepBuf[:b]
		for i := 0; i < b; i++ {
			run := &w.settleRuns[br.Origin(i)]
			if run.memo && run.chainLen < maxChain {
				fp, okFP := br.AppendRunFingerprint(run.chainBuf(run.chainLen), i)
				if !okFP {
					run.memo = false
				} else {
					run.chain[run.chainLen] = appendGraph(fp, run.k)
					run.chainLen++
				}
			}
			lo, hi := br.Hull(i)
			keep[i] = true
			if hi-lo <= tol {
				run.limit, run.ok, run.done = (lo+hi)/2, true, true
				keep[i] = false
				anyDone = true
			}
		}
		if anyDone {
			if br.Compact(keep) == 0 {
				break
			}
			gs = gs[:0]
			for i := 0; i < br.B(); i++ {
				gs = append(gs, w.settleRuns[br.Origin(i)].g)
			}
		}
		if r == settle {
			break
		}
		br.StepRuns(gs)
	}
	w.gsBuf = gs[:0]

	// Commit results and the chain pre-fill in one lock acquisition:
	// converged runs fill their whole recorded chain (repeating k from
	// G_k^i.C converges to the same limit through the same
	// configurations); unconverged runs record the failure verdict for
	// their first configuration only — an intermediate configuration
	// still has its full Settle budget ahead.
	e.mu.Lock()
	for i := range w.settleRuns {
		run := &w.settleRuns[i]
		out[run.k] = limitEntry{limit: run.limit, ok: run.done}
		if !run.memo {
			continue
		}
		if run.done {
			for j := 0; j < run.chainLen; j++ {
				e.limits.put(run.chain[j], limitEntry{limit: run.limit, ok: true})
			}
		} else if run.chainLen > 0 {
			e.limits.put(run.chain[0], limitEntry{ok: false})
		}
	}
	e.mu.Unlock()
	return true
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

// chainKey borrows chain buffer i.
func (w *walker) chainKey(i int) []byte {
	for len(w.chain) <= i {
		w.chain = append(w.chain, nil)
	}
	return w.chain[i][:0]
}

// chainRecorder carries the settle-chain memoization policy of a limit
// computation — which configurations get recorded, how many, and how the
// resolved limit is committed to the engine's table. It is shared by the
// agent and dense settle loops so their caching behavior cannot diverge
// (the transposition table is common to both paths).
type chainRecorder struct {
	w        *walker
	k        int
	memo     bool
	chainLen int
	maxChain int
}

// newChainRecorder starts a recording for graph k. Pre-filling deeper
// than Depth+1 configurations down the chain is pointless: the execution
// tree can never reach them, so their entries would only bloat the table
// and the insert cost.
func (w *walker) newChainRecorder(k int, memo bool) chainRecorder {
	return chainRecorder{w: w, k: k, memo: memo, maxChain: w.e.params.Depth + 1}
}

// active reports whether the next configuration should be fingerprinted;
// buffer returns the scratch to fingerprint it into.
func (r *chainRecorder) active() bool   { return r.memo && r.chainLen < r.maxChain }
func (r *chainRecorder) buffer() []byte { return r.w.chainKey(r.chainLen) }

// commit finishes recording one configuration from its fingerprint
// (fp, ok as returned by the AppendFingerprint flavor in use); a
// non-fingerprintable configuration turns the whole recording off.
func (r *chainRecorder) commit(fp []byte, ok bool) {
	if !ok {
		r.memo = false
		return
	}
	r.w.chain[r.chainLen] = appendGraph(fp, r.k)
	r.chainLen++
}

// fill stores the resolved limit for every recorded chain configuration:
// repeating k from G_k^i.C converges to the same limit through the same
// configurations, so one settle loop resolves its entire chain at once.
func (r *chainRecorder) fill(limit float64, ok bool) {
	if !r.memo {
		return
	}
	e := r.w.e
	e.mu.Lock()
	for i := 0; i < r.chainLen; i++ {
		e.limits.put(r.w.chain[i], limitEntry{limit: limit, ok: ok})
	}
	e.mu.Unlock()
}

// fillNotConverged stores the failure verdict for the chain's first
// configuration only: the verdict holds just for c itself — an
// intermediate configuration still has its full Settle budget ahead.
func (r *chainRecorder) fillNotConverged() {
	if !r.memo || r.chainLen == 0 {
		return
	}
	memoPut(r.w.e, &r.w.e.limits, r.w.chain[0], limitEntry{ok: false})
}

// limit computes (memoized) the limit of the constant-graph-k
// continuation from c. On a miss it runs the settle loop on the walker's
// ping-pong scratch pair and then pre-fills the table for every
// intermediate configuration of the chain: repeating k from G_k^i.C
// converges to the same limit through the same configurations, so each
// settle loop resolves its entire chain at once.
func (w *walker) limit(c *core.Config, k int) (float64, bool) {
	e := w.e
	g := e.model.Graph(k)
	key, memo := c.AppendFingerprint(w.key[:0])
	w.key = key
	if memo {
		key = appendGraph(key, k)
		w.key = key
		if entry, hit := memoGet(e, &e.limits, key); hit {
			return entry.limit, entry.ok
		}
	}

	if limit, ok, handled := w.denseLimit(c, k, memo); handled {
		return limit, ok
	}

	settle, tol := e.params.Settle, e.params.Tol
	cur := c
	rec := w.newChainRecorder(k, memo)
	for r := 0; ; r++ {
		if rec.active() {
			rec.commit(cur.AppendFingerprint(rec.buffer()))
		}
		if cur.Diameter() <= tol {
			lo, hi := cur.Hull()
			limit := (lo + hi) / 2
			rec.fill(limit, true)
			return limit, true
		}
		if r == settle {
			break
		}
		next := &w.settleA
		if cur == next {
			next = &w.settleB
		}
		cur.StepInto(next, g)
		cur = next
	}
	rec.fillNotConverged()
	return 0, false
}

// denseLimit is the dense settle loop: the same chain recording,
// convergence test, and table pre-fill as the agent loop below it in
// limit, but stepping flat struct-of-arrays state instead of cloning and
// delivering messages. handled is false when the configuration must take
// the agent path: algorithm not dense-capable, no dense fingerprints
// while memoization is on (the chain pre-fill would be lost), or agents
// that cannot export their state.
func (w *walker) denseLimit(c *core.Config, k int, memo bool) (limit float64, okLimit, handled bool) {
	alg := c.Algorithm()
	if alg == nil {
		return 0, false, false
	}
	d, ok := core.AsDense(alg)
	if !ok {
		return 0, false, false
	}
	if _, fpOK := d.(core.DenseFingerprinter); memo && !fpOK {
		return 0, false, false
	}
	if !c.WriteDense(&w.denseA) {
		return 0, false, false
	}
	e := w.e
	g := e.model.Graph(k)
	n := c.N()
	if cap(w.denseOut) < n {
		w.denseOut = make([]float64, n)
	}
	out := w.denseOut[:n]

	settle, tol := e.params.Settle, e.params.Tol
	cur, next := &w.denseA, &w.denseB
	rec := w.newChainRecorder(k, memo)
	for r := 0; ; r++ {
		if rec.active() {
			rec.commit(core.AppendDenseFingerprint(d, cur, rec.buffer()))
		}
		d.OutputsDense(cur, out)
		lo, hi := core.Hull(out)
		if hi-lo <= tol {
			limit := (lo + hi) / 2
			rec.fill(limit, true)
			return limit, true, true
		}
		if r == settle {
			break
		}
		core.DenseStep(d, next, cur, g)
		cur, next = next, cur
	}
	rec.fillNotConverged()
	return 0, false, true
}
