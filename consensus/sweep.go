package consensus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/consensus/scenario"
	"repro/internal/core"
	"repro/internal/graph"
)

// RunSpec is the declarative form of a session configuration — the batch
// and wire counterpart of the functional options. Zero fields take the
// session defaults.
type RunSpec struct {
	Model     string    `json:"model,omitempty"`
	Algorithm string    `json:"algorithm,omitempty"`
	Adversary string    `json:"adversary,omitempty"`
	Scenario  string    `json:"scenario,omitempty"`
	Inputs    []float64 `json:"inputs,omitempty"`
	Rounds    int       `json:"rounds,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	Depth     int       `json:"depth,omitempty"`
}

// options lowers the spec to session options.
func (spec RunSpec) options() []Option {
	var opts []Option
	if spec.Model != "" {
		opts = append(opts, WithModel(spec.Model))
	}
	if spec.Algorithm != "" {
		opts = append(opts, WithAlgorithm(spec.Algorithm))
	}
	if spec.Adversary != "" {
		opts = append(opts, WithAdversary(spec.Adversary))
	}
	if spec.Scenario != "" {
		opts = append(opts, WithScenarioSpec(spec.Scenario))
	}
	if spec.Inputs != nil {
		opts = append(opts, WithInputs(spec.Inputs...))
	}
	if spec.Rounds != 0 {
		opts = append(opts, WithRounds(spec.Rounds))
	}
	if spec.Seed != 0 {
		opts = append(opts, WithSeed(spec.Seed))
	}
	if spec.Depth != 0 {
		opts = append(opts, WithDepth(spec.Depth))
	}
	return opts
}

// NewSession builds a session from a declarative spec plus optional extra
// options (applied after the spec's).
func NewSession(spec RunSpec, extra ...Option) (*Session, error) {
	return New(append(spec.options(), extra...)...)
}

// RunSummary condenses one completed run for batch and wire use.
type RunSummary struct {
	Algorithm       string    `json:"algorithm"`
	Rounds          int       `json:"rounds"`
	InitialDiameter float64   `json:"initial_diameter"`
	FinalDiameter   float64   `json:"final_diameter"`
	GeometricRate   float64   `json:"geometric_rate"`
	WorstRoundRatio float64   `json:"worst_round_ratio"`
	FinalOutputs    []float64 `json:"final_outputs"`
	Validity        bool      `json:"validity"`
}

// Summarize condenses a result.
func Summarize(res *Result) RunSummary {
	return RunSummary{
		Algorithm:       res.Algorithm(),
		Rounds:          res.Rounds(),
		InitialDiameter: res.DiameterAt(0),
		FinalDiameter:   res.DiameterAt(res.Rounds()),
		GeometricRate:   res.GeometricRate(),
		WorstRoundRatio: res.WorstRoundRatio(),
		FinalOutputs:    res.FinalOutputs(),
		Validity:        res.ValidityHolds(validityTol),
	}
}

// SweepCache memoizes run summaries by configuration fingerprint. It is
// safe for concurrent use and shareable across Sweep calls and servers.
// The cache is bounded: past its entry capacity (NewSweepCacheSize, or
// SweepCacheCapacity as a sweep option) insertions evict the oldest
// entries first, so a long-lived server facing unbounded distinct specs
// holds at most Capacity summaries.
type SweepCache struct {
	mu        sync.Mutex
	m         map[string]RunSummary
	order     []string // insertion order; order[head:] are live, FIFO eviction
	head      int
	max       int
	hits      uint64
	misses    uint64
	evictions uint64
}

// defaultSweepCacheSize bounds a cache built by NewSweepCache.
const defaultSweepCacheSize = 1 << 16

// NewSweepCache returns an empty cache with the default size bound.
func NewSweepCache() *SweepCache { return NewSweepCacheSize(defaultSweepCacheSize) }

// NewSweepCacheSize returns an empty cache holding at most max entries
// (the default bound for max <= 0).
func NewSweepCacheSize(max int) *SweepCache {
	if max <= 0 {
		max = defaultSweepCacheSize
	}
	return &SweepCache{m: make(map[string]RunSummary), max: max}
}

// defaultSweepCache is the cache Sweep uses when the caller supplies
// none, so independent sweeps of identical work share results.
var defaultSweepCache = NewSweepCache()

// get looks up a summary.
func (c *SweepCache) get(key string) (RunSummary, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return s, ok
}

// setCapacity bounds the entry count, evicting down to the new cap.
func (c *SweepCache) setCapacity(max int) {
	if max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = max
	c.evictLocked(0)
}

// Capacity returns the entry bound.
func (c *SweepCache) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max <= 0 {
		return defaultSweepCacheSize
	}
	return c.max
}

// evictLocked drops oldest entries until the cache fits max minus room.
func (c *SweepCache) evictLocked(room int) {
	for len(c.m)+room > c.max && c.head < len(c.order) {
		delete(c.m, c.order[c.head])
		c.order[c.head] = ""
		c.head++
		c.evictions++
	}
	// Reclaim the order slice once the dead prefix dominates.
	if c.head > len(c.order)/2 {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
}

// put stores a summary, evicting the oldest entries when full. It
// tolerates a zero-value SweepCache by lazily adopting the defaults.
func (c *SweepCache) put(key string, s RunSummary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]RunSummary)
	}
	if c.max <= 0 {
		c.max = defaultSweepCacheSize
	}
	if _, exists := c.m[key]; !exists {
		c.evictLocked(1)
		c.order = append(c.order, key)
	}
	c.m[key] = s
}

// lateGet re-checks a key that already missed once (and was counted) in
// this sweep: a concurrent sweep may have computed it in the meantime.
// It counts a hit when served but no second miss otherwise.
func (c *SweepCache) lateGet(key string) (RunSummary, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[key]
	if ok {
		c.hits++
	}
	return s, ok
}

// Stats returns (hits, misses, entries).
func (c *SweepCache) Stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.m)
}

// SweepCacheCounters is a cache's lifetime accounting snapshot, as the
// status endpoints report it.
type SweepCacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// HitRate returns hits/(hits+misses), 0 before any lookup.
func (c SweepCacheCounters) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// Counters returns the cache's full accounting snapshot.
func (c *SweepCache) Counters() SweepCacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := c.max
	if max <= 0 {
		max = defaultSweepCacheSize
	}
	return SweepCacheCounters{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.m),
		Capacity:  max,
	}
}

// Lookup returns the summary stored under key, counting a hit or a
// miss — the exported form of the sweep's internal lookup, for callers
// (the distributed result store) addressing the cache by their own
// fingerprint keys.
func (c *SweepCache) Lookup(key string) (RunSummary, bool) { return c.get(key) }

// Insert stores a summary under key, evicting oldest-first past the
// capacity — the exported counterpart of Lookup.
func (c *SweepCache) Insert(key string, s RunSummary) { c.put(key, s) }

// cacheKey derives the fingerprint key of a session: the canonical
// initial-configuration fingerprint (the same encoding the valency
// engine's transposition tables are keyed by) plus every run parameter
// that can change the outcome — including the identity of the resolving
// registries, because two libraries may map one spec name to different
// engines. The execution path is deliberately absent — the dense and
// Agent paths are differentially tested to be bit-identical. ok is false
// for non-fingerprintable algorithms; those runs are never cached.
func (s *Session) cacheKey() (string, bool) {
	ck, ok := s.contentKey()
	if !ok {
		return "", false
	}
	key := make([]byte, 0, 32+len(ck))
	key = strconv.AppendUint(key, s.lib.models().id, 10)
	key = append(key, '/')
	key = strconv.AppendUint(key, s.lib.algorithms().id, 10)
	key = append(key, '/')
	key = strconv.AppendUint(key, s.lib.adversaries().id, 10)
	key = append(key, '|')
	key = append(key, ck...)
	return string(key), true
}

// contentKey is the registry-independent part of cacheKey: the canonical
// byte encoding of everything that determines a run's outcome given the
// repository's built-in factories — resolved model spec, algorithm name,
// adversary spec (the schedule's SHA-256 fingerprint for scenario runs),
// run parameters, and the initial-configuration fingerprint. Unlike
// cacheKey it is stable across processes, so its hash can address
// results computed by another machine running the same build.
func (s *Session) contentKey() ([]byte, bool) {
	fp, ok := core.NewConfig(s.alg, s.inputs).AppendFingerprint(nil)
	if !ok {
		return nil, false
	}
	key := make([]byte, 0, 96+len(fp))
	key = append(key, s.modelSpec...)
	key = append(key, '|')
	key = append(key, s.alg.Name()...)
	key = append(key, '|')
	key = append(key, s.advSpec...)
	key = append(key, "|r"...)
	key = strconv.AppendInt(key, int64(s.rounds), 10)
	key = append(key, "|s"...)
	key = strconv.AppendInt(key, s.seed, 10)
	key = append(key, "|d"...)
	key = strconv.AppendInt(key, int64(s.depth), 10)
	// The fingerprint is raw bytes, so length-prefix it: without the
	// length the digit fields before it would not be uniquely decodable
	// against fingerprints that happen to start with digits or '|'.
	key = append(key, '|')
	key = strconv.AppendInt(key, int64(len(fp)), 10)
	key = append(key, ':')
	key = append(key, fp...)
	return key, true
}

// Fingerprint returns the session's content address: the hex SHA-256 of
// the canonical registry-independent configuration key (see contentKey).
// Two sessions with equal fingerprints produce bit-identical results on
// either execution path and any machine running the same build, so the
// fingerprint keys the distributed result store and names shards. ok is
// false for non-fingerprintable algorithms, whose runs are never
// content-addressed.
func (s *Session) Fingerprint() (string, bool) {
	ck, ok := s.contentKey()
	if !ok {
		return "", false
	}
	sum := sha256.Sum256(ck)
	return hex.EncodeToString(sum[:]), true
}

// SpecFingerprint resolves a spec into its content address (see
// Session.Fingerprint). A nil error with an empty fingerprint marks a
// valid but non-fingerprintable configuration.
func SpecFingerprint(spec RunSpec, extra ...Option) (string, error) {
	s, err := NewSession(spec, extra...)
	if err != nil {
		return "", err
	}
	fp, _ := s.Fingerprint()
	return fp, nil
}

// SweepResult is one sweep entry's outcome. Fingerprint is the run's
// content address (Session.Fingerprint); empty for non-fingerprintable
// configurations and for specs that failed to resolve.
type SweepResult struct {
	Index       int         `json:"index"`
	Spec        RunSpec     `json:"spec"`
	Fingerprint string      `json:"fingerprint,omitempty"`
	Cached      bool        `json:"cached"`
	Summary     *RunSummary `json:"summary,omitempty"`
	Err         string      `json:"error,omitempty"`
}

// sweepConfig collects sweep options.
type sweepConfig struct {
	workers  int
	cache    *SweepCache
	lib      *Library
	batch    int
	cacheCap int
	// batchPar is the raw SweepBatchParallelism setting (0 inherit the
	// process default, < 0 auto, >= 1 pinned); intra is its resolved
	// per-tile worker count.
	batchPar int
	intra    int

	// scenMemo shares resolved schedules across the sweep's specs:
	// schedules are immutable and content-addressed, so a grid of one
	// scenario × K algorithms generates/encodes/fingerprints it once,
	// not K times. Entries are single-flight — concurrent prepare
	// workers hitting the same spec wait on one resolution instead of
	// duplicating it.
	scenMu     sync.Mutex
	scenMemo   map[string]*scenarioMemoEntry
	scenBudget int
}

// scenarioMemoEntry is one single-flight memo slot.
type scenarioMemoEntry struct {
	once sync.Once
	s    *scenario.Schedule
	err  error
}

// resolveScenario resolves a scenario spec through the sweep-wide
// single-flight memo. Resolution is deterministic, so errors are
// memoized alongside successes. Distinct specs draw on one sweep-wide
// materialization budget: every resolved schedule stays live in the
// memo for the whole sweep, so without an aggregate bound a single
// request of many long-schedule specs could pin gigabytes.
func (c *sweepConfig) resolveScenario(spec string) (*scenario.Schedule, error) {
	c.scenMu.Lock()
	if c.scenMemo == nil {
		c.scenMemo = make(map[string]*scenarioMemoEntry)
		c.scenBudget = maxScenarioResolveRounds
	}
	e, ok := c.scenMemo[spec]
	if !ok {
		e = &scenarioMemoEntry{}
		c.scenMemo[spec] = e
	}
	c.scenMu.Unlock()
	e.once.Do(func() {
		lib := c.lib
		e.s, e.err = lib.scenarios().New(spec, ScenarioEnv{Models: lib.models(), Scenarios: lib.scenarios()})
		if e.err != nil {
			return
		}
		c.scenMu.Lock()
		c.scenBudget -= e.s.PrefixLen() + e.s.LoopLen()
		over := c.scenBudget < 0
		c.scenMu.Unlock()
		if over {
			e.s, e.err = nil, fmt.Errorf("consensus: sweep scenarios materialize more than %d rounds in total", maxScenarioResolveRounds)
		}
	})
	return e.s, e.err
}

// DefaultSweepBatch is the default cap on runs per batch tile.
const DefaultSweepBatch = 64

// SweepOption configures Sweep.
type SweepOption func(*sweepConfig)

// SweepWorkers bounds the worker pool (default: GOMAXPROCS).
func SweepWorkers(n int) SweepOption {
	return func(c *sweepConfig) { c.workers = n }
}

// WithSweepCache uses the given cache instead of the shared default.
func WithSweepCache(cache *SweepCache) SweepOption {
	return func(c *sweepConfig) { c.cache = cache }
}

// SweepLibrary resolves every swept spec against lib.
func SweepLibrary(lib *Library) SweepOption {
	return func(c *sweepConfig) { c.lib = lib }
}

// SweepBatchSize caps the runs stepped together per batch tile
// (default DefaultSweepBatch). n <= 1 disables batching entirely — every
// spec runs through its own Session.Run, the pre-batch-plane behavior
// the differential tests compare against.
func SweepBatchSize(n int) SweepOption {
	return func(c *sweepConfig) { c.batch = n }
}

// SweepBatchParallelism sets the intra-step worker count of every
// batch tile: n >= 1 pins it (1 = sequential tiles), n <= 0 selects
// auto (GOMAXPROCS); without the option tiles inherit the process
// default (REPRO_BATCH_PARALLELISM / SetProcessBatchParallelism).
// When the resolved count exceeds 1, the sweep divides its worker
// budget between the two layers — tile-level workers shrink to about
// workers/n — so tile fan-out times intra-tile stepping stays near the
// machine size instead of oversubscribing it (the shared step pool
// bounds the whole process as a backstop). Results are byte-identical
// at every setting.
func SweepBatchParallelism(n int) SweepOption {
	return func(c *sweepConfig) {
		if n <= 0 {
			n = -1
		}
		c.batchPar = n
	}
}

// SweepCacheCapacity bounds the entry count of the sweep's cache,
// evicting oldest-first past the cap. With WithSweepCache it re-bounds
// that cache (the bound persists on it); without, the sweep uses a
// private bounded cache — the process-wide shared default is never
// shrunk by one caller's option.
func SweepCacheCapacity(n int) SweepOption {
	return func(c *sweepConfig) { c.cacheCap = n }
}

// Sweep runs every spec and returns one result per spec, in input
// order. Individual failures land in the result's Err field; the
// returned error is non-nil only when ctx is cancelled, in which case
// unprocessed entries carry the context error. Results are memoized in
// the (shared, bounded, fingerprint-keyed) sweep cache, so repeated and
// overlapping sweeps do not recompute identical runs; valency-driven
// entries additionally share the per-model engine pool.
//
// Execution is tiled onto the batch plane: after a parallel
// resolve-and-cache-check pass, specs that share a (model, algorithm,
// agent count, round budget) tile and can run densely under an
// oblivious pattern source are stepped together as one core.BatchRunner
// per tile — graphs still drawn per run, collapsing to one shared
// segmentation when every run plays the same graph — while adaptive
// sources and algorithms without a dense stepper keep the per-session
// path. Tiles and leftover singles are then executed over a bounded
// worker pool. Per-run outputs, summaries, and cache fingerprints are
// byte-identical either way (SweepBatchSize(1) forces the unbatched
// path; the differential tests compare the two).
func Sweep(ctx context.Context, specs []RunSpec, opts ...SweepOption) ([]SweepResult, error) {
	cfg := sweepConfig{workers: runtime.GOMAXPROCS(0), batch: DefaultSweepBatch}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.workers > len(specs) {
		cfg.workers = len(specs)
	}
	// Resolve the intra-tile worker count and split the budget: with
	// n-way stepping inside each tile, about workers/n tile-level
	// workers keep total parallelism near the configured budget.
	switch {
	case cfg.batchPar >= 1:
		cfg.intra = cfg.batchPar
	case cfg.batchPar < 0:
		cfg.intra = runtime.GOMAXPROCS(0)
	default:
		cfg.intra = core.DefaultBatchParallelism()
	}
	execWorkers := cfg.workers
	if cfg.intra > 1 {
		execWorkers = cfg.workers / cfg.intra
		if execWorkers < 1 {
			execWorkers = 1
		}
	}
	switch {
	case cfg.cache != nil && cfg.cacheCap > 0:
		cfg.cache.setCapacity(cfg.cacheCap)
	case cfg.cache == nil && cfg.cacheCap > 0:
		cfg.cache = NewSweepCacheSize(cfg.cacheCap)
	case cfg.cache == nil:
		cfg.cache = defaultSweepCache
	}

	// Phase 1: resolve every spec, consult the cache, and build the
	// fresh pattern source the run will consume — in parallel.
	tasks := make([]sweepTask, len(specs))
	runParallel(cfg.workers, len(specs), func(i int) {
		tasks[i].prepare(ctx, specs[i], i, &cfg)
	})

	// Phase 2: tile the batchable remainder by (model, algorithm, n,
	// rounds); everything else stays a single.
	var units [][]*sweepTask
	tiles := make(map[string][]*sweepTask)
	var tileKeys []string
	for i := range tasks {
		t := &tasks[i]
		if t.done {
			continue
		}
		if cfg.batch > 1 && t.batchable {
			key := t.tileKey()
			if _, seen := tiles[key]; !seen {
				tileKeys = append(tileKeys, key)
			}
			tiles[key] = append(tiles[key], t)
		} else {
			units = append(units, []*sweepTask{t})
		}
	}
	for _, key := range tileKeys {
		group := tiles[key]
		// Order the group by schedule identity (the session's pattern
		// spec — "scenario:<fingerprint>" for schedule-driven runs)
		// before chunking, so runs replaying equal schedules land in the
		// same tile and the batch runner's graph clustering collapses
		// them onto shared step plans. The sort is stable on the spec
		// index, so equal-schedule runs keep submission order and sweeps
		// with all-distinct schedules keep their original tiling.
		sort.SliceStable(group, func(i, j int) bool {
			return group[i].session.advSpec < group[j].session.advSpec
		})
		// Split large tiles so one tile cannot serialize the pool: at
		// most cfg.batch runs per tile, and at least one tile per
		// tile-level worker when the group is large enough (intra-tile
		// parallelism shrinks that layer, leaving larger tiles for the
		// in-step workers to shard).
		tile := (len(group) + execWorkers - 1) / execWorkers
		if tile > cfg.batch {
			tile = cfg.batch
		}
		if tile < 1 {
			tile = 1
		}
		for len(group) > 0 {
			end := tile
			if end > len(group) {
				end = len(group)
			}
			units = append(units, group[:end])
			group = group[end:]
		}
	}

	// Phase 3: execute the units over the worker pool.
	runParallel(execWorkers, len(units), func(u int) {
		if len(units[u]) == 1 {
			units[u][0].runSingle(ctx, &cfg)
		} else {
			runSweepTile(ctx, units[u], &cfg)
		}
	})

	results := make([]SweepResult, len(specs))
	for i := range tasks {
		results[i] = tasks[i].res
	}
	observeSweepOutcome(results)
	return results, ctx.Err()
}

// runParallel fans f(0..n-1) out over at most workers goroutines.
func runParallel(workers, n int, f func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// sweepTask is one sweep entry moving through the phases.
type sweepTask struct {
	res       SweepResult
	session   *Session
	src       core.PatternSource
	key       string
	cacheable bool
	batchable bool
	done      bool
}

// prepare resolves the spec, consults the cache, and classifies the
// task for tiling.
func (t *sweepTask) prepare(ctx context.Context, spec RunSpec, index int, cfg *sweepConfig) {
	t.res = SweepResult{Index: index, Spec: spec}
	if err := ctx.Err(); err != nil {
		t.fail(err)
		return
	}
	var extra []Option
	if cfg.lib != nil {
		extra = append(extra, WithLibrary(cfg.lib))
	}
	sessionSpec := spec
	if spec.Scenario != "" {
		// Resolve through the sweep-wide memo and hand the session the
		// schedule itself, so grid entries sharing a scenario spec do
		// not re-materialize it per entry.
		sch, err := cfg.resolveScenario(spec.Scenario)
		if err != nil {
			t.fail(err)
			return
		}
		extra = append(extra, WithScenario(sch))
		sessionSpec.Scenario = ""
	}
	session, err := NewSession(sessionSpec, extra...)
	if err != nil {
		t.fail(err)
		return
	}
	t.session = session
	t.key, t.cacheable = session.cacheKey()
	if t.cacheable {
		t.res.Fingerprint, _ = session.Fingerprint()
		if summary, hit := cfg.cache.get(t.key); hit {
			t.res.Cached = true
			t.res.Summary = &summary
			t.done = true
			t.release()
			return
		}
	}
	src, _, err := session.newSource()
	if err != nil {
		t.fail(err)
		return
	}
	t.src = src
	if _, denseOK := core.AsDense(session.alg); denseOK && core.IsOblivious(src) {
		t.batchable = true
	}
}

// fail finalizes the task with an error.
func (t *sweepTask) fail(err error) {
	t.res.Err = err.Error()
	t.done = true
	t.release()
}

// finish records the computed summary and feeds the cache.
func (t *sweepTask) finish(summary RunSummary, cfg *sweepConfig) {
	if t.cacheable {
		cfg.cache.put(t.key, summary)
	}
	t.res.Summary = &summary
	t.done = true
	t.release()
}

// release drops the task's session and source once its result is final,
// so a large sweep does not hold every resolved session live until the
// last unit completes.
func (t *sweepTask) release() {
	t.session, t.src = nil, nil
}

// tileKey groups batchable tasks that may step together: same library
// (cfg-wide), model, algorithm, agent count, and round budget. The
// algorithm is keyed by its exact spec string — display names are lossy
// (a formatted parameter can collide across distinct parameterizations)
// and every run of a tile steps under the first task's algorithm, so
// only specs the registry resolves identically may share a tile.
func (t *sweepTask) tileKey() string {
	s := t.session
	return fmt.Sprintf("%s|%s|%d|%d", s.modelSpec, t.res.Spec.Algorithm, s.N(), s.rounds)
}

// serveLate re-checks the cache at execution time: a concurrent sweep
// may have computed this run since the prepare phase.
func (t *sweepTask) serveLate(cfg *sweepConfig) bool {
	if !t.cacheable {
		return false
	}
	summary, hit := cfg.cache.lateGet(t.key)
	if !hit {
		return false
	}
	t.res.Cached = true
	t.res.Summary = &summary
	t.done = true
	t.release()
	return true
}

// runSingle executes one task through the per-session path (the
// pre-batch-plane behavior), reusing the already-built source.
func (t *sweepTask) runSingle(ctx context.Context, cfg *sweepConfig) {
	if err := ctx.Err(); err != nil {
		t.fail(err)
		return
	}
	if t.serveLate(cfg) {
		return
	}
	s := t.session
	tr, err := core.RunCtx(ctx, s.alg, s.inputs, t.src, s.rounds)
	if err != nil {
		t.fail(err)
		return
	}
	t.finish(Summarize(&Result{tr: tr}), cfg)
}

// runSweepTile steps every task of one tile together on the batch
// plane, computing per-run summaries on the fly — no trace
// materialization: only the diameter series (needed by GeometricRate
// and WorstRoundRatio), the running validity flag, and the final
// outputs are kept per run.
// sweepPlanCacheCap sizes a sweep runner's step-plan cache by a ~4 MiB
// byte budget at roughly 40n+300 bytes per cached plan (segments, fold
// scratch, and the mask key), never below the runner's flat default —
// e.g. ~4400 plans at n = 16, ~1400 at n = 64. Churn-style generators
// draw from populations of a few thousand distinct graphs, so holding
// the whole working set converts steady-state lookups into map hits.
func sweepPlanCacheCap(n int) int {
	c := (4 << 20) / (40*n + 300)
	if c < core.DefaultPlanCacheCap {
		return core.DefaultPlanCacheCap
	}
	return c
}

// planCacheTotals aggregates every sweep tile's step-plan cache
// accounting process-wide. Per-runner counters are plain fields on the
// hot path; each tile flushes them here once, on completion, so the
// status endpoints can report plan reuse without slowing stepping.
var planCacheTotals struct {
	hits, misses, evictions, deferrals atomic.Uint64
}

// PlanCacheCounters is the process-wide step-plan cache accounting
// (see core.BatchRunner.PlanCacheStats for the per-field semantics),
// summed over every completed sweep tile.
type PlanCacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Deferrals uint64 `json:"deferrals"`
}

// PlanCacheTotals returns the process-wide plan-cache counters.
func PlanCacheTotals() PlanCacheCounters {
	return PlanCacheCounters{
		Hits:      planCacheTotals.hits.Load(),
		Misses:    planCacheTotals.misses.Load(),
		Evictions: planCacheTotals.evictions.Load(),
		Deferrals: planCacheTotals.deferrals.Load(),
	}
}

func runSweepTile(ctx context.Context, tile []*sweepTask, cfg *sweepConfig) {
	if err := ctx.Err(); err != nil {
		for _, t := range tile {
			t.fail(err)
		}
		return
	}
	live := tile[:0:0]
	for _, t := range tile {
		if !t.serveLate(cfg) {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return
	}
	tile = live
	s0 := tile[0].session
	d, _ := core.AsDense(s0.alg)
	rounds, n := s0.rounds, s0.N()
	B := len(tile)
	inputs := make([][]float64, B)
	for i, t := range tile {
		inputs[i] = t.session.inputs
	}
	br := core.NewBatchRunner(d, inputs)
	tileStart := time.Now()
	defer func() {
		h, m, e, df, _ := br.PlanCacheStats()
		planCacheTotals.hits.Add(h)
		planCacheTotals.misses.Add(m)
		planCacheTotals.evictions.Add(e)
		planCacheTotals.deferrals.Add(df)
		if sweepObs != nil {
			sweepObs.tiles.Inc()
			sweepObs.tileSeconds.Observe(time.Since(tileStart).Seconds())
		}
	}()
	// Intra-tile parallelism: the sweep-resolved count, raised by any
	// session in the tile that pinned a higher one via
	// WithBatchParallelism (parallel stepping is bit-identical, so
	// raising it for tile-mates only trades latency).
	par := cfg.intra
	for _, t := range tile {
		if p := t.session.batchPar; p > par {
			par = p
		}
	}
	br.SetParallelism(par)
	// Scenario sweeps revisit graphs heavily (lassos, churn epochs, and
	// generators drawing from small graph populations), so size the plan
	// cache by a byte budget instead of the flat default: small-n plans
	// are tiny, and holding the whole working set turns the per-round
	// lookup into a map hit instead of rebuild churn.
	br.SetPlanCacheCap(sweepPlanCacheCap(n))

	diams := make([][]float64, B)
	valid := make([]bool, B)
	lo0 := make([]float64, B)
	hi0 := make([]float64, B)
	los := make([]float64, B)
	his := make([]float64, B)
	out := make([]float64, n)
	for i := 0; i < B; i++ {
		diams[i] = make([]float64, 0, rounds+1)
		lo, hi := br.Hull(i)
		lo0[i], hi0[i] = lo, hi
		diams[i] = append(diams[i], hi-lo)
		valid[i] = true
	}

	// Schedule-driven sources (the scenario path — the common case) are
	// devirtualized once here: the per-round loop indexes the lasso
	// directly instead of paying an interface dispatch per run per round.
	gs := make([]graph.Graph, B)
	scheds := make([]core.Schedule, B)
	schedOK := true
	for i, t := range tile {
		var ok bool
		if scheds[i], ok = t.src.(core.Schedule); !ok {
			schedOK = false
			break
		}
	}
	done := ctx.Done()
	for round := 1; round <= rounds; round++ {
		if done != nil {
			select {
			case <-done:
				for _, t := range tile {
					t.fail(ctx.Err())
				}
				return
			default:
			}
		}
		if schedOK {
			for i := range scheds {
				gs[i] = scheds[i].At(round)
			}
		} else {
			for i, t := range tile {
				gs[i] = t.src.Next(round, nil)
			}
		}
		br.StepEachWithHulls(gs, los, his)
		for i := 0; i < B; i++ {
			diams[i] = append(diams[i], his[i]-los[i])
			// Equivalent to checking every output against the initial
			// hull, since lo/hi are exact selections from the outputs.
			if los[i] < lo0[i]-validityTol || his[i] > hi0[i]+validityTol {
				valid[i] = false
			}
		}
	}

	for i, t := range tile {
		br.Outputs(i, out)
		final := append([]float64(nil), out...)
		t.finish(RunSummary{
			Algorithm:       t.session.alg.Name(),
			Rounds:          rounds,
			InitialDiameter: diams[i][0],
			FinalDiameter:   diams[i][rounds],
			GeometricRate:   GeometricRate(diams[i]),
			WorstRoundRatio: WorstRoundRatio(diams[i]),
			FinalOutputs:    final,
			Validity:        valid[i],
		}, cfg)
	}
}

// validityTol is the tolerance Summarize passes to ValidityHolds.
const validityTol = 1e-9
