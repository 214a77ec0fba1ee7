package core

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// This file implements intra-step parallelism for BatchRunner: one
// round's work — the graph clusters of a StepEach round, contiguous
// run ranges within a large cluster, and (for fold-shardable steppers)
// contiguous segment ranges of one plan — is sharded into tasks and
// executed by a process-wide worker pool plus the coordinating
// goroutine itself.
//
// Determinism contract: a parallel step stores exactly the bytes the
// sequential step stores, at every parallelism level, for every
// stepper. Three properties make worker scheduling unobservable:
//
//  1. Disjoint writes. A run-range task writes only its own runs' rows
//     of the back buffer (and hull slots); a segment-range task writes
//     only its own receivers' entries. No task reads another task's
//     writes — every input lives in the front buffer.
//  2. Scheduling-independent values. Each task's float operations are
//     the sequential stepper's operations on the same inputs. Worker
//     scratch (shadow fold arrays, output scratch) is fully rewritten
//     before any slot is read, so arena reuse across tasks, jobs, and
//     runners cannot leak state. Segment shards recompute any fold
//     whose canonical owner lies outside the shard from its mask —
//     bit-transparent because min/max folds are exact multiset
//     selections (the BatchStepper reassociation contract), which is
//     exactly why only FoldShardCapable steppers are segment-sharded.
//  3. A fixed join order. The coordinator waits for every task
//     (stepJob.wg) before the buffer swap, so the round's results are
//     complete and identical regardless of which worker ran what.
//
// The plan cache stays owned by the coordinating goroutine: lookups,
// admission, eviction, and recycling all happen before tasks launch,
// and workers only read the immutable segmentation of already-built
// plans — so the cache needs no lock at all (read-mostly by
// construction, rather than sharded).

// rawBatchPar encodes the process-wide default parallelism: 0 unset
// (sequential), -1 auto (GOMAXPROCS at resolve time), k >= 1 a pinned
// worker count.
var rawBatchPar atomic.Int32

func init() {
	if s, ok := os.LookupEnv("REPRO_BATCH_PARALLELISM"); ok {
		if s == "auto" {
			rawBatchPar.Store(-1)
			return
		}
		k, err := strconv.Atoi(s)
		if err != nil || k < 1 {
			// Fail fast: a typo silently falling back to sequential
			// stepping would make parallel gates vacuous.
			panic(fmt.Sprintf("core: invalid REPRO_BATCH_PARALLELISM %q (want auto or an integer >= 1)", s))
		}
		rawBatchPar.Store(int32(k))
	}
}

// DefaultBatchParallelism returns the process-wide default intra-step
// worker count inherited by runners without an explicit
// SetParallelism: the REPRO_BATCH_PARALLELISM environment variable
// ("auto" or an integer >= 1) or the last SetDefaultBatchParallelism,
// with auto resolving to GOMAXPROCS; 1 (sequential stepping) when
// never set.
func DefaultBatchParallelism() int {
	switch p := rawBatchPar.Load(); {
	case p > 0:
		return int(p)
	case p < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// SetDefaultBatchParallelism sets the process-wide default intra-step
// worker count: n >= 1 pins it (1 restores sequential stepping), n <= 0
// selects auto (GOMAXPROCS). It returns the previous resolved default
// so callers can restore it.
func SetDefaultBatchParallelism(n int) int {
	prev := DefaultBatchParallelism()
	if n >= 1 {
		rawBatchPar.Store(int32(n))
	} else {
		rawBatchPar.Store(-1)
	}
	return prev
}

// FoldShardCapable is an optional BatchStepper capability: a stepper
// whose StepDenseBatch honors StepPlan.SegRange — stepping only that
// segment range and recomputing any fold whose canonical owner lies
// before the shard shard-locally — may have its per-plan segment loop
// split across workers. Only steppers whose folds are exact multiset
// selections (min/max) can claim this: a shard boundary reassociates
// the fold, which is bit-transparent exactly for such folds and for
// nothing order-sensitive (sums must not claim it).
type FoldShardCapable interface {
	FoldShardable() bool
}

// maxStepWorkers caps the shared pool; worker counts past the largest
// real machine would only add parked goroutines.
const maxStepWorkers = 64

// minSegShard is the smallest segment-range shard worth creating:
// below it the shard-local refolds at the boundary outweigh the split.
const minSegShard = 8

// stepPool is the process-wide worker pool every BatchRunner fans its
// round tasks out on. One shared pool — instead of per-runner pools —
// bounds whole-process intra-step parallelism near the machine size
// even when many runners step concurrently (a sweep's tiles), costs
// only parked goroutines when idle, and frees runners from any
// lifecycle obligation: there is nothing to close. Each worker owns a
// private scratch arena, so concurrently stepping runners never share
// mutable state through the pool.
type stepPool struct {
	started atomic.Int32
	mu      sync.Mutex
	jobs    chan *stepJob
}

var sharedStepPool = stepPool{jobs: make(chan *stepJob, maxStepWorkers)}

// ensure grows the pool to at least n workers (capped). Workers are
// persistent; an idle pool is parked goroutines only.
func (p *stepPool) ensure(n int) {
	if n > maxStepWorkers {
		n = maxStepWorkers
	}
	if int(p.started.Load()) >= n {
		return
	}
	p.mu.Lock()
	for int(p.started.Load()) < n {
		p.started.Add(1)
		go p.work()
	}
	p.mu.Unlock()
}

// work is one pool worker: it helps whatever job it receives a token
// for until the job's task list is drained, then releases the token.
func (p *stepPool) work() {
	var a stepArena
	for j := range p.jobs {
		j.run(&a)
		j.wg.Done()
	}
}

// stepArena is one executor's private scratch: the shadow plan
// (task-local Runs/hull/fold state over a cluster's shared, read-only
// segmentation) and the output scratch for per-run hull scans. Arena
// contents never survive into results — every run rewrites the fold
// slots it reads — so arenas are freely reused across tasks, jobs, and
// runners.
type stepArena struct {
	shadow StepPlan
	out    []float64
}

// stepTask is one shard of a round. With a plan entry it is a cluster
// shard: the run subset runs stepped through e's segmentation, over
// segment range [segLo, segHi) when segHi > 0 (a fold shard), over the
// word-aligned receiver range [recvLo, recvHi) when recvHi > 0 (a
// receiver shard of a multi-word plan), or the full segmentation
// otherwise. Without an entry it is a generic shard:
// the runs stepped one by one through the runner's persistent views
// (deferred singletons, and whole rounds of algorithms with no
// BatchStepper). hullDone reports whether the task delivered the
// round's requested hulls for its runs.
type stepTask struct {
	e        *planEntry
	runs     []int
	segLo    int
	segHi    int
	recvLo   int
	recvHi   int
	hullDone bool
}

// stepJob is one parallel round of one runner: the task list, the
// graphs generic shards step under (gs per run, or the shared g), and
// the join state. A runner owns exactly one job, reused round after
// round; pool tokens reference it, and wg.Wait guarantees every token
// is consumed before the job may be reused — the fixed join point that
// makes the buffer swap safe.
type stepJob struct {
	r        *BatchRunner
	tasks    []stepTask
	spare    []stepTask
	gs       []graph.Graph
	g        graph.Graph
	wantHull bool
	next     atomic.Int64
	wg       sync.WaitGroup
}

// run drains tasks from the job's shared counter until none remain.
// Task stealing is unordered on purpose: disjoint writes make the
// claim order unobservable in the results.
func (j *stepJob) run(a *stepArena) {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= len(j.tasks) {
			return
		}
		j.r.runTask(&j.tasks[i], a)
	}
}

// SetParallelism sets the runner's intra-step worker count: n >= 1
// pins it (1 = sequential stepping, the classic single-goroutine
// path), n <= 0 reverts to the process default
// (REPRO_BATCH_PARALLELISM / SetDefaultBatchParallelism; sequential
// when unset). Outputs, hulls, and fingerprints are byte-identical at
// every setting.
func (r *BatchRunner) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	r.par = n
}

// Parallelism returns the resolved intra-step worker count.
func (r *BatchRunner) Parallelism() int {
	if r.par >= 1 {
		return r.par
	}
	return DefaultBatchParallelism()
}

// beginTasks readies the runner's job for one parallel round.
func (r *BatchRunner) beginTasks(gs []graph.Graph, g graph.Graph, wantHull bool) {
	j := &r.job
	j.r = r
	j.tasks = j.tasks[:0]
	j.gs, j.g = gs, g
	j.wantHull = wantHull
	j.next.Store(0)
}

// addClusterTasks shards one cluster's runs into contiguous run-range
// tasks, sized so the round yields about two tasks per worker in
// proportion to the cluster's share of totalRuns — enough slack for
// the shared-counter stealing to balance uneven clusters without
// per-run dispatch overhead.
func (r *BatchRunner) addClusterTasks(e *planEntry, runs []int, par, totalRuns int) {
	shards := (2*par*len(runs) + totalRuns - 1) / totalRuns
	if shards < 1 {
		shards = 1
	}
	if shards > len(runs) {
		shards = len(runs)
	}
	for k := 0; k < shards; k++ {
		lo, hi := k*len(runs)/shards, (k+1)*len(runs)/shards
		r.job.tasks = append(r.job.tasks, stepTask{e: e, runs: runs[lo:hi]})
	}
}

// addRunShards shards a generic (per-run views) round into contiguous
// run-range tasks.
func (r *BatchRunner) addRunShards(runs []int, par int) {
	shards := 2 * par
	if shards > len(runs) {
		shards = len(runs)
	}
	for k := 0; k < shards; k++ {
		lo, hi := k*len(runs)/shards, (k+1)*len(runs)/shards
		r.job.tasks = append(r.job.tasks, stepTask{runs: runs[lo:hi]})
	}
}

// expandSegShards splits cluster tasks along the segment axis when run
// sharding alone cannot fill the worker budget — the large-n regime,
// where one cluster holds few runs but many receiver segments. Only
// fold-shardable steppers reach here (r.segOK); each split shard steps
// its runs over its own segment range, and the shard boundaries form
// the deterministic fold-combine tree: every fold is either reused
// in-shard exactly as the sequential stepper would, or recombined
// shard-locally from exact min/max selections.
func (r *BatchRunner) expandSegShards(par int) {
	j := &r.job
	if !r.segOK || len(j.tasks) >= par {
		return
	}
	per := (par + len(j.tasks) - 1) / len(j.tasks)
	split := j.spare[:0]
	for _, t := range j.tasks {
		s := 0
		if t.e != nil {
			s = len(t.e.plan.Segs) / minSegShard
		}
		if s > per {
			s = per
		}
		if s <= 1 {
			split = append(split, t)
			continue
		}
		segs := len(t.e.plan.Segs)
		for k := 0; k < s; k++ {
			t.segLo, t.segHi = k*segs/s, (k+1)*segs/s
			split = append(split, t)
		}
	}
	j.spare = j.tasks
	j.tasks = split
	r.expandWordShards(par)
}

// expandWordShards splits cluster tasks along the fourth shard axis —
// word-aligned receiver ranges within a fold — when neither run nor
// segment sharding could fill the worker budget: the very-large-n,
// few-runs, few-segments regime (one wide graph stepping a handful of
// runs), where a segment spans many mask words and its receiver writes
// dominate. Only multi-word plans of fold-shardable steppers split here;
// each receiver shard intersects every segment with its word-aligned
// receiver range and computes the folds it needs shard-locally from their
// masks (no cross-segment reuse — the canonical owner may lie outside the
// shard's receivers), which is bit-transparent for exact min/max
// selections exactly like segment shards' boundary refolds.
func (r *BatchRunner) expandWordShards(par int) {
	j := &r.job
	if !r.segOK || len(j.tasks) >= par {
		return
	}
	n := r.cur.n
	per := (par + len(j.tasks) - 1) / len(j.tasks)
	split := j.spare[:0]
	for _, t := range j.tasks {
		s := 0
		if t.e != nil && t.segHi == 0 {
			s = t.e.plan.G.Words()
		}
		if s > per {
			s = per
		}
		if s <= 1 {
			split = append(split, t)
			continue
		}
		words := t.e.plan.G.Words()
		for k := 0; k < s; k++ {
			t.recvLo = k * words / s * 64
			t.recvHi = (k + 1) * words / s * 64
			if t.recvHi > n {
				t.recvHi = n
			}
			split = append(split, t)
		}
	}
	j.spare = j.tasks
	j.tasks = split
}

// runTasks executes the round's task list: the coordinator always
// helps, and up to par-1 pool workers join via non-blocking tokens (a
// saturated pool just means the coordinator keeps more of the work).
// It returns once every task has finished — including tasks claimed by
// pool workers — and reports whether all of them delivered the
// requested hulls.
func (r *BatchRunner) runTasks(par int) bool {
	j := &r.job
	r.shardTasks += uint64(len(j.tasks))
	tokens := par - 1
	if t := len(j.tasks) - 1; tokens > t {
		tokens = t
	}
	if tokens > 0 {
		sharedStepPool.ensure(tokens)
		for k := 0; k < tokens; k++ {
			j.wg.Add(1)
			select {
			case sharedStepPool.jobs <- j:
			default:
				j.wg.Add(-1)
				tokens = k
			}
			if tokens == k {
				break
			}
		}
	}
	j.run(&r.arena)
	j.wg.Wait()
	done := true
	for i := range j.tasks {
		if !j.tasks[i].hullDone {
			done = false
			break
		}
	}
	j.gs = nil
	return done
}

// runTask executes one shard using the arena's private scratch.
func (r *BatchRunner) runTask(t *stepTask, a *stepArena) {
	j := &r.job
	if t.e == nil {
		// Generic shard: per-run stepping through the persistent views,
		// with the per-run hull scan inlined (the same OutputsDense+Hull
		// sequence the post-swap scan would run).
		for _, i := range t.runs {
			g := j.g
			if j.gs != nil {
				g = j.gs[i]
			}
			r.stepRun(i, g)
			if j.wantHull {
				if cap(a.out) < r.cur.n {
					a.out = make([]float64, r.cur.n)
				}
				a.out = a.out[:r.cur.n]
				r.alg.OutputsDense(&r.viewsNext[i], a.out)
				r.hull.lo[i], r.hull.hi[i] = Hull(a.out)
			}
		}
		t.hullDone = j.wantHull
		return
	}
	// Cluster shard: step through a shadow plan sharing only the cached
	// plan's read-only segmentation. Runs, hull relay, fold scratch, and
	// the segment range are task-local, so concurrent shards of one
	// cluster never touch shared mutable state.
	p := &t.e.plan
	sh := &a.shadow
	sh.G = p.G
	sh.Segs = p.Segs
	sh.deltaArena = p.deltaArena
	if cap(sh.F0) < len(p.Segs) {
		sh.F0 = make([]float64, len(p.Segs))
		sh.F1 = make([]float64, len(p.Segs))
	}
	sh.F0, sh.F1 = sh.F0[:len(p.Segs)], sh.F1[:len(p.Segs)]
	sh.Runs = t.runs
	sh.SegLo, sh.SegHi = t.segLo, t.segHi
	sh.RecvLo, sh.RecvHi = t.recvLo, t.recvHi
	// A fold or receiver shard covers only part of each run's output, so
	// it cannot fold the hull; the round falls back to the post-swap scan.
	sh.WantHull = j.wantHull && t.segHi == 0 && t.recvHi == 0
	sh.HullLo, sh.HullHi = r.hull.lo, r.hull.hi
	sh.HullDone = false
	r.bs.StepDenseBatch(r.next, r.cur, sh)
	t.hullDone = sh.HullDone
	sh.Runs, sh.Segs, sh.deltaArena = nil, nil, nil
	sh.WantHull, sh.HullDone = false, false
	sh.HullLo, sh.HullHi = nil, nil
	sh.SegLo, sh.SegHi = 0, 0
	sh.RecvLo, sh.RecvHi = 0, 0
}
