package consensus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/consensus/scenario"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
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

// checkFinite rejects a summary, or a diameter series served with it,
// holding a non-finite float. Finite inputs can still overflow — the
// midpoint of ±1.7e308 has an infinite diameter — and JSON cannot carry
// ±Inf or NaN, so such a run is reported as an error rather than served
// or cached.
func (s *RunSummary) checkFinite(diameters ...float64) error {
	for _, vs := range [][]float64{
		{s.InitialDiameter, s.FinalDiameter, s.GeometricRate, s.WorstRoundRatio}, s.FinalOutputs, diameters,
	} {
		for _, v := range vs {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("consensus: the run overflowed the float range (its result holds %v)", v)
			}
		}
	}
	return nil
}

// SweepCache memoizes run summaries by configuration fingerprint. It is
// safe for concurrent use and shareable across Sweep calls and servers.
// The cache is bounded by entry count: past its capacity
// (NewSweepCacheSize) insertions evict the oldest entries first, so a
// long-lived server facing unbounded distinct specs holds at most that
// many summaries.
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

// Lookup returns the summary stored under key, counting a hit or a
// miss.
func (c *SweepCache) Lookup(key string) (RunSummary, bool) {
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

// Insert stores a summary under key, evicting the oldest entries when
// full; re-inserting a resident key replaces its summary and evicts
// nothing. It tolerates a zero-value SweepCache by lazily adopting the
// defaults.
func (c *SweepCache) Insert(key string, s RunSummary) {
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

// cacheKey derives the result-cache key of a session: the identity of
// the resolving registries, because two libraries may map one spec name
// to different engines, plus addr, the session's content address
// (Fingerprint: the SHA-256 of its contentKey, which holds the canonical
// initial-configuration fingerprint and every run parameter that can
// change the outcome). The key is a few dozen bytes at any agent count,
// where the content key itself grows with the inputs (about 5.5 KB at
// n = 256). The execution path is deliberately absent — the dense and
// Agent paths are differentially tested to be bit-identical.
// Non-fingerprintable algorithms have no content key, and their runs are
// never cached.
func (s *Session) cacheKey(addr string) string {
	key := make([]byte, 0, 32+len(addr))
	key = strconv.AppendUint(key, s.lib.models().id, 10)
	key = append(key, '/')
	key = strconv.AppendUint(key, s.lib.algorithms().id, 10)
	key = append(key, '/')
	key = strconv.AppendUint(key, s.lib.adversaries().id, 10)
	key = append(key, '|')
	key = append(key, addr...)
	return string(key)
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
	return contentAddress(ck), true
}

// contentAddress is the hex SHA-256 of a contentKey.
func contentAddress(ck []byte) string {
	sum := sha256.Sum256(ck)
	return hex.EncodeToString(sum[:])
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
	workers int
	cache   *SweepCache
	lib     *Library
	batch   int

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

// maxSweepWorkers is how many workers a sweep may run on a host with
// fewer CPUs.
const maxSweepWorkers = 64

// SweepWorkers bounds the worker pool (default: GOMAXPROCS). A sweep
// runs at most one worker per spec and at most max(GOMAXPROCS, 64).
func SweepWorkers(n int) SweepOption {
	return func(c *sweepConfig) { c.workers = n }
}

// WithSweepCache memoizes the sweep's runs in cache, so sweeps given
// the same cache serve each other's runs. Without it a sweep memoizes
// within the call only.
func WithSweepCache(cache *SweepCache) SweepOption {
	return func(c *sweepConfig) { c.cache = cache }
}

// SweepLibrary resolves every swept spec against lib.
func SweepLibrary(lib *Library) SweepOption {
	return func(c *sweepConfig) { c.lib = lib }
}

// SweepBatchSize caps the runs stepped together per batch tile
// (default DefaultSweepBatch). n <= 1 disables batching entirely — every
// spec runs alone, as a leftover single of a batched sweep does, on one
// trace-free core.Exec run. The differential tests compare the singles
// against the tiles and against Summarize(Session.Run).
func SweepBatchSize(n int) SweepOption {
	return func(c *sweepConfig) { c.batch = n }
}

// Sweep runs every spec and returns one result per spec, in input
// order. Individual failures land in the result's Err field; the
// returned error is non-nil only when ctx is cancelled, in which case
// unprocessed entries carry the context error. Results are memoized by
// fingerprint in the sweep's cache (WithSweepCache), so sweeps sharing
// a cache do not recompute identical runs; valency-driven entries
// additionally share the per-model engine pool.
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
	// A request picks its worker count: run at most one worker per spec,
	// and at most the host's CPUs or maxSweepWorkers, whichever is more.
	cfg.workers = max(min(cfg.workers, len(specs), max(runtime.GOMAXPROCS(0), maxSweepWorkers)), 1)
	if cfg.cache == nil {
		cfg.cache = NewSweepCache()
	}

	// Phase 1: resolve every spec, consult the cache, and build the
	// fresh pattern source the run will consume — in parallel.
	tasks := make([]sweepTask, len(specs))
	parallel.For(cfg.workers, len(specs), func(i int) {
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
		// most cfg.batch runs per tile, and at least one tile per worker
		// when the group is large enough. Each tile steps on the
		// goroutine that runs it.
		tile := (len(group) + cfg.workers - 1) / cfg.workers
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
	parallel.For(cfg.workers, len(units), func(u int) {
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
	if ck, ok := session.contentKey(); ok {
		t.res.Fingerprint = contentAddress(ck)
		t.key, t.cacheable = session.cacheKey(t.res.Fingerprint), true
		if summary, hit := cfg.cache.Lookup(t.key); hit {
			t.res.Cached = true
			t.res.Summary = &summary
			t.done = true
			t.release()
			return
		}
	}
	src, _, err := session.newSource(ctx)
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

// finish records the computed summary and feeds the cache. A summary
// holding a non-finite float (the run overflowed) becomes the task's
// error instead: it is neither cached nor returned, since JSON cannot
// carry it.
func (t *sweepTask) finish(summary RunSummary, cfg *sweepConfig) {
	if err := summary.checkFinite(); err != nil {
		t.fail(err)
		return
	}
	if t.cacheable {
		cfg.cache.Insert(t.key, summary)
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

// runSingle executes one task on its own, reusing the already-built
// source.
func (t *sweepTask) runSingle(ctx context.Context, cfg *sweepConfig) {
	if err := ctx.Err(); err != nil {
		t.fail(err)
		return
	}
	if t.serveLate(cfg) {
		return
	}
	summary, _, err := t.session.summarize(ctx, t.src, false)
	if err != nil {
		t.fail(err)
		return
	}
	t.finish(summary, cfg)
}

// summarize runs the session once from src: one core.Exec run whose
// observer folds each round's output hull into a runStats, so it keeps
// no trace on either execution path. With diameters set it also returns
// Δ(y(t)) for t = 0..rounds, the one per-round series a served run
// answers with. Its summary and series equal Summarize(Session.Run) and
// Result.Diameters bit for bit.
func (s *Session) summarize(ctx context.Context, src core.PatternSource, diameters bool) (RunSummary, []float64, error) {
	var st runStats
	var final, ds []float64
	if diameters {
		ds = make([]float64, 0, s.rounds+1)
	}
	err := core.Exec(ctx, s.alg, s.inputs, src, s.rounds, func(round int, _ graph.Graph, v core.View) bool {
		lo, hi := v.Hull()
		if round == 0 {
			st = newRunStats(lo, hi)
		} else {
			st.observe(lo, hi)
		}
		if diameters {
			ds = append(ds, hi-lo)
		}
		if round == s.rounds {
			final = v.Outputs()
		}
		return true
	})
	if err != nil {
		return RunSummary{}, nil, err
	}
	return st.summary(s.alg.Name(), final), ds, nil
}

// runStats is the streaming summarizer behind every sweep summary: it
// folds one run's per-round output hulls into a RunSummary in O(1)
// state. GeometricRate and WorstRoundRatio fold a diameter series
// through the same fold, and the validity test is Result.ValidityHolds'
// tolerance test applied to each round's exact hull, so its summaries
// equal Summarize's bit for bit.
type runStats struct {
	lo0, hi0 float64 // initial hull, the validity reference
	d0, last float64 // initial and latest diameter
	worst    float64
	rounds   int
	valid    bool
}

// newRunStats starts a run from its initial output hull.
func newRunStats(lo, hi float64) runStats {
	d := hi - lo
	return runStats{lo0: lo, hi0: hi, d0: d, last: d, valid: true}
}

// observe folds in the output hull after one more round.
func (st *runStats) observe(lo, hi float64) {
	// Equivalent to checking every output against the initial hull,
	// since lo/hi are exact selections from the outputs.
	if lo < st.lo0-validityTol || hi > st.hi0+validityTol {
		st.valid = false
	}
	st.fold(hi - lo)
}

// fold folds in the diameter after one more round; rounds whose
// predecessor diameter is 0 have no contraction ratio.
func (st *runStats) fold(d float64) {
	if st.last != 0 && d/st.last > st.worst {
		st.worst = d / st.last
	}
	st.last = d
	st.rounds++
}

// rate is the fitted per-round contraction factor (Δ(T)/Δ(0))^(1/T); 0
// when either end diameter is 0 or no round was run.
func (st *runStats) rate() float64 {
	if st.rounds == 0 || st.d0 == 0 || st.last == 0 {
		return 0
	}
	return math.Pow(st.last/st.d0, 1/float64(st.rounds))
}

// summary closes the run with its algorithm name and final outputs.
func (st *runStats) summary(alg string, final []float64) RunSummary {
	return RunSummary{
		Algorithm:       alg,
		Rounds:          st.rounds,
		InitialDiameter: st.d0,
		FinalDiameter:   st.last,
		GeometricRate:   st.rate(),
		WorstRoundRatio: st.worst,
		FinalOutputs:    final,
		Validity:        st.valid,
	}
}

// diameterStats folds a streamed diameter series (diameters[t] = Δ(y(t))).
func diameterStats(diameters []float64) runStats {
	var st runStats
	if len(diameters) > 0 {
		st.d0, st.last = diameters[0], diameters[0]
		for _, d := range diameters[1:] {
			st.fold(d)
		}
	}
	return st
}

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

// runSweepTile steps every task of one tile together on the batch
// plane, folding each round's per-run output hulls into one runStats
// per run — no trace and no per-round series are kept.
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
		br.FlushMetrics()
		sweepObs.tiles.Inc()
		sweepObs.tileSeconds.Observe(time.Since(tileStart).Seconds())
	}()
	// Scenario sweeps revisit graphs heavily (lassos, churn epochs, and
	// generators drawing from small graph populations), so size the plan
	// cache by a byte budget instead of the flat default: small-n plans
	// are tiny, and holding the whole working set turns the per-round
	// lookup into a map hit instead of rebuild churn.
	br.SetPlanCacheCap(sweepPlanCacheCap(n))

	stats := make([]runStats, B)
	los := make([]float64, B)
	his := make([]float64, B)
	for i := range stats {
		stats[i] = newRunStats(br.Hull(i))
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
		for i := range stats {
			stats[i].observe(los[i], his[i])
		}
	}

	for i, t := range tile {
		final := make([]float64, n)
		br.Outputs(i, final)
		t.finish(stats[i].summary(t.session.alg.Name(), final), cfg)
	}
}

// validityTol is the tolerance Summarize passes to ValidityHolds.
const validityTol = 1e-9
