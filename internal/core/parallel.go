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
// round's runs — each graph cluster split into contiguous run ranges —
// are sharded into tasks and executed by a process-wide worker pool plus
// the coordinating goroutine itself. A task always steps whole runs.
//
// Determinism contract: a parallel step stores exactly the bytes the
// sequential step stores, at every parallelism level, for every
// stepper. Three properties make worker scheduling unobservable:
//
//  1. Disjoint writes. A task writes only its own runs' rows of the
//     back buffer (and hull slots). No task reads another task's
//     writes — every input lives in the front buffer.
//  2. Scheduling-independent values. Each task steps its runs with the
//     sequential stepper's operations on the same inputs, over the
//     plan's full segmentation. Worker scratch (shadow fold arrays,
//     output scratch) is fully rewritten before any slot is read, so
//     arena reuse across tasks, jobs, and runners cannot leak state.
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

// maxStepWorkers caps the shared pool; worker counts past the largest
// real machine would only add parked goroutines.
const maxStepWorkers = 64

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

// stepTask is one shard of a round: a contiguous range of whole runs.
// With a plan entry it is a cluster shard, the runs stepped through e's
// segmentation. Without an entry it is a generic shard: the runs stepped
// one by one through the runner's persistent views (deferred singletons,
// and whole rounds of algorithms with no BatchStepper). hullDone reports
// whether the task delivered the round's requested hulls for its runs.
type stepTask struct {
	e        *planEntry
	runs     []int
	hullDone bool
}

// stepJob is one parallel round of one runner: the task list, the
// per-run graphs generic shards step under, and the join state. A
// runner owns exactly one job, reused round after round; pool tokens
// reference it, and wg.Wait guarantees every token is consumed before
// the job may be reused — the fixed join point that makes the buffer
// swap safe.
type stepJob struct {
	r        *BatchRunner
	tasks    []stepTask
	gs       []graph.Graph
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
func (r *BatchRunner) beginTasks(gs []graph.Graph, wantHull bool) {
	j := &r.job
	j.r = r
	j.tasks = j.tasks[:0]
	j.gs = gs
	j.wantHull = wantHull
	j.next.Store(0)
}

// addClusterTasks shards one cluster's runs into contiguous run-range
// tasks, sized so the round yields about two tasks per worker in
// proportion to the cluster's share of totalRuns — enough slack for
// the shared-counter stealing to balance uneven clusters without
// per-run dispatch overhead — and never more tasks than runs. A nil
// entry makes generic shards.
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
			r.stepRun(i, j.gs[i])
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
	// plan's read-only segmentation. Runs, hull relay, and fold scratch
	// are task-local, so concurrent shards of one cluster never touch
	// shared mutable state.
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
	sh.WantHull = j.wantHull
	sh.HullLo, sh.HullHi = r.hull.lo, r.hull.hi
	sh.HullDone = false
	r.bs.StepDenseBatch(r.next, r.cur, sh)
	t.hullDone = sh.HullDone
	sh.Runs, sh.Segs, sh.deltaArena = nil, nil, nil
	sh.WantHull, sh.HullDone = false, false
	sh.HullLo, sh.HullHi = nil, nil
}
