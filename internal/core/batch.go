package core

import (
	"fmt"

	"repro/internal/graph"
)

// This file implements the batched execution plane: one flat
// struct-of-arrays state holding B runs × n agents, stepped together.
// Multi-run workloads — sweeps, the d-dimensional vector lift, decision
// sweeps — are families of runs over one algorithm, and stepping them as
// a batch amortizes everything that is per-round but run-independent:
// the graph's in-mask scan, the mask-segment plan, buffer traffic, and
// the double-buffer swap. Each run's view into the batch is a plain
// DenseState aliasing the batch planes, so the per-algorithm steppers
// (and their bit-identity contract with the Agent oracle) are reused
// unchanged; batched steppers (BatchStepper) additionally share the
// receiver segmentation across runs without changing any per-run float
// operation.

// BatchState is the flat state of B same-shaped runs of one dense
// algorithm: run-major struct-of-arrays planes. Run r's value vector
// occupies Y[r*n:(r+1)*n] and its aux planes occupy
// Aux[r*planes*n:(r+1)*planes*n] (plane-major within the run), so every
// per-run view is a contiguous slice of the batch plane and stepping a
// view is bit-identical to stepping an independent DenseState.
//
// All runs of a batch share one round counter: batches step together.
type BatchState struct {
	b      int
	n      int
	planes int
	round  int
	// Y holds the B value vectors, run-major.
	Y []float64
	// Aux holds the B aux-plane blocks, run-major.
	Aux []float64
}

// B returns the number of runs in the batch.
func (st *BatchState) B() int { return st.b }

// N returns the number of agents per run.
func (st *BatchState) N() int { return st.n }

// Planes returns the number of auxiliary planes per run.
func (st *BatchState) Planes() int { return st.planes }

// Round returns the shared number of completed rounds.
func (st *BatchState) Round() int { return st.round }

// Resize shapes the batch for b runs of n agents with the given aux
// plane count, reusing the backing arrays when possible. Contents are
// unspecified afterwards.
func (st *BatchState) Resize(b, n, planes int) {
	if b < 0 {
		panic(fmt.Sprintf("core: negative batch size %d", b))
	}
	if n < 1 || n > graph.MaxNodes {
		panic(fmt.Sprintf("core: invalid agent count %d", n))
	}
	if planes < 0 {
		panic(fmt.Sprintf("core: negative aux plane count %d", planes))
	}
	st.b, st.n, st.planes = b, n, planes
	if cap(st.Y) < b*n {
		st.Y = make([]float64, b*n)
	}
	st.Y = st.Y[:b*n]
	if cap(st.Aux) < b*planes*n {
		st.Aux = make([]float64, b*planes*n)
	}
	st.Aux = st.Aux[:b*planes*n]
}

// RunY returns run r's value vector (one float64 per agent).
func (st *BatchState) RunY(r int) []float64 {
	lo, hi := r*st.n, (r+1)*st.n
	return st.Y[lo:hi:hi]
}

// RunPlane returns aux plane k of run r.
func (st *BatchState) RunPlane(r, k int) []float64 {
	if k < 0 || k >= st.planes {
		panic(fmt.Sprintf("core: aux plane %d out of range [0,%d)", k, st.planes))
	}
	lo := (r*st.planes + k) * st.n
	hi := lo + st.n
	return st.Aux[lo:hi:hi]
}

// View aliases run r as a DenseState: the view shares the batch's
// backing arrays, so reads and writes through it are reads and writes of
// the batch. Views are capacity-clamped; resizing one never grows into a
// neighboring run.
func (st *BatchState) View(r int, view *DenseState) {
	if r < 0 || r >= st.b {
		panic(fmt.Sprintf("core: batch run %d out of range [0,%d)", r, st.b))
	}
	view.n, view.planes, view.round = st.n, st.planes, st.round
	view.Y = st.RunY(r)
	lo, hi := r*st.planes*st.n, (r+1)*st.planes*st.n
	view.Aux = st.Aux[lo:hi:hi]
}

// MaskSeg is one receiver segment of a StepPlan: the maximal range of
// consecutive receivers [Start, End) sharing one in-neighbor row, which
// StepPlan.MaskRow returns. Fold is the index of the first segment of
// the plan carrying the same row: min/max/sum folds are pure functions
// of the received multiset, so a stepper may compute the fold once at
// segment Fold and reuse it here — sharing across non-adjacent equal
// rows, which the per-run last-row memo cannot see.
//
// Base/Delta factor a distinct fold (Fold == own index) over an earlier
// one: when Base >= 0, Segs[Base] is an earlier distinct fold whose row
// is a strict subset of this segment's, and Delta is the offset of the
// non-empty remainder row in the plan's arena (StepPlan.DeltaRow). A
// stepper whose fold is an exact multiset selection (min/max: Fmin/Fmax
// results do not depend on association order, including the NaN and
// signed-zero cases) may extend the base fold by the delta's bits
// instead of refolding the whole row — bit-identical, and on
// churn-style graphs (each down agent's row is the all-up row plus its
// self bit) it turns O(n) refolds into O(1) extensions. Order-sensitive
// folds (sums) must ignore Base and fold the row directly.
type MaskSeg struct {
	Start, End int
	Fold       int
	Base       int
	Delta      int
}

// StepPlan is the run-independent precomputation of a batch step under
// one graph: the receiver segmentation by in-mask. Plans are built once
// per distinct graph and cached by the runner (keyed by the graph's raw
// mask bytes), so a lasso schedule that revisits its graphs every loop
// period re-steps through ready-made plans. F0 and F1 are per-segment
// fold scratch (one slot per segment) for BatchStepper implementations;
// the plan owns them so batched steppers stay allocation-free.
//
// Runs lists the batch run indices this plan steps in the current call —
// the cluster of runs whose round graph this plan was built from.
// Steppers iterate it instead of the full batch, so one StepEach round
// with heterogeneous graphs is a handful of clustered calls rather than
// a per-run fallback.
//
// WantHull asks the stepper to also report each run's post-step output
// hull into HullLo/HullHi (one slot per run, indexed by the absolute run
// index) and acknowledge by setting HullDone. Steppers whose outputs are
// constant per segment fold the hull over the segment values —
// bit-identical to scanning the output vector, since min/max are exact
// selections over the same multiset — for a fraction of the scan cost.
// Steppers that cannot (or choose not to) leave HullDone false and the
// runner scans.
type StepPlan struct {
	G    graph.Graph
	Segs []MaskSeg
	F0   []float64
	F1   []float64

	Runs []int

	WantHull bool
	HullDone bool
	HullLo   []float64
	HullHi   []float64

	// deltaArena backs the segments' delta rows (DeltaRow): at most one
	// row-wide delta per distinct fold, so the arena is sized once per
	// build (n*G.Words() words) and appended into without reallocating —
	// offsets into it stay valid for the plan's lifetime.
	deltaArena []uint64
}

// MaskRow returns a segment's in-neighbor row: the graph row of any
// receiver in [Start, End) — equal across the segment by construction.
// The slice aliases the graph's immutable storage.
func (p *StepPlan) MaskRow(seg *MaskSeg) []uint64 {
	return p.G.InRow(seg.Start)
}

// DeltaRow returns a segment's subset-delta row — one row's width of the
// plan's arena at offset seg.Delta. Valid only when seg.Base >= 0.
func (p *StepPlan) DeltaRow(seg *MaskSeg) []uint64 {
	off, end := seg.Delta, seg.Delta+p.G.Words()
	return p.deltaArena[off:end:end]
}

// rowSubset reports whether mask row sub is contained in row super.
func rowSubset(sub, super []uint64) bool {
	for i := range sub {
		if sub[i]&^super[i] != 0 {
			return false
		}
	}
	return true
}

// build computes the segmentation of g. Segment rows stay in the graph's
// immutable storage (MaskRow derives them from Start); deltas are
// materialized into the plan's arena, which is sized so appends never
// reallocate (each distinct fold contributes at most one row-wide
// delta), and referenced by offset through Delta.
func (p *StepPlan) build(g graph.Graph) {
	p.G = g
	p.Segs = p.Segs[:0]
	n, w := g.N(), g.Words()
	if cap(p.deltaArena) < n*w {
		p.deltaArena = make([]uint64, 0, n*w)
	}
	p.deltaArena = p.deltaArena[:0]
	for j := 0; j < n; {
		row := g.InRow(j)
		end := j + 1
		for end < n && graph.SetsEqual(g.InRow(end), row) {
			end++
		}
		fold := len(p.Segs)
		// While scanning for an equal row, also track the widest earlier
		// distinct fold whose row is a strict subset of this one: a base
		// of one bit saves nothing (the extension costs one combine per
		// delta bit), so only bases of two or more count.
		base, baseBits := -1, 1
		for i := range p.Segs {
			s := &p.Segs[i]
			srow := g.InRow(s.Start)
			if graph.SetsEqual(srow, row) {
				fold = i
				break
			}
			if s.Fold == i && rowSubset(srow, row) {
				if pc := graph.SetCount(srow); pc > baseBits {
					base, baseBits = i, pc
				}
			}
		}
		seg := MaskSeg{Start: j, End: end, Fold: fold, Base: -1}
		if fold == len(p.Segs) && base >= 0 {
			seg.Base, seg.Delta = base, len(p.deltaArena)
			for x, bm := range g.InRow(p.Segs[base].Start) {
				p.deltaArena = append(p.deltaArena, row[x]&^bm)
			}
		}
		p.Segs = append(p.Segs, seg)
		j = end
	}
	if cap(p.F0) < len(p.Segs) {
		p.F0 = make([]float64, len(p.Segs))
		p.F1 = make([]float64, len(p.Segs))
	}
	p.F0 = p.F0[:len(p.Segs)]
	p.F1 = p.F1[:len(p.Segs)]
}

// BatchStepper is an optional DenseAlgorithm capability: step every run
// of a batch under one shared graph in a single call, using the plan's
// receiver segmentation. Implementations must be bit-identical to
// stepping each run's view with StepDense: every stored float must carry
// the same bits. Beyond sharing run-independent bookkeeping (mask scans,
// segment discovery), a stepper may also reassociate folds whose result
// is an exact multiset selection (min/max), e.g. via MaskSeg.Base;
// order-sensitive arithmetic (sums, averages) must keep StepDense's
// operation order exactly.
type BatchStepper interface {
	StepDenseBatch(dst, src *BatchState, plan *StepPlan)
}

// AsBatchStepper returns the batch-stepping view of alg, unwrapping
// DenseProvider indirections.
func AsBatchStepper(alg Algorithm) (BatchStepper, bool) {
	if bs, ok := alg.(BatchStepper); ok {
		return bs, true
	}
	if p, ok := alg.(DenseProvider); ok {
		if d, dok := p.Dense(); dok {
			bs, bok := d.(BatchStepper)
			return bs, bok
		}
	}
	return nil, false
}

// planEntry is one cached StepPlan plus its cache bookkeeping: the
// owned mask-byte key, the step stamp/slot that assign the entry to a
// cluster during one clustered round, and the recycling state — refs
// counts the per-run identity memos holding the entry, dead marks it
// evicted. A dead entry parks in the runner's graveyard until no memo
// references it, then its segment and fold-scratch storage is reused
// for the next cache miss, so plan churn under many-distinct-graph
// schedules is allocation-free in steady state.
//
// A first-sight entry starts pending: its key lives only in keyBytes
// (a reusable buffer — no string is materialized) and its plan is not
// yet built. Pending entries are admitted — built, string-keyed, and
// inserted into the cache — only when the round shows the plan will be
// shared (a multi-run cluster) or the doorkeeper shows the graph has
// been seen before; otherwise the run steps through the per-run path
// and the entry is returned to the free list untouched.
type planEntry struct {
	plan     StepPlan
	key      string
	keyBytes []byte
	hash     uint64
	mark     uint64
	slot     int
	refs     int
	dead     bool
}

// planCluster is one distinct-graph cluster of a clustered round: the
// plan to step with and the batch run indices stepping under it.
type planCluster struct {
	e    *planEntry
	runs []int
}

// DefaultPlanCacheCap bounds a runner's step-plan cache: past it the
// oldest plans are evicted FIFO, so hostile schedules with unboundedly
// many distinct graphs rebuild plans instead of growing the cache. At
// the default, a 64-agent worst case holds on the order of a megabyte.
const DefaultPlanCacheCap = 512

// BatchRunner executes B runs of one dense algorithm in lock-step with
// double-buffered batch state: Step computes every run's successor into
// the back buffer and swaps, allocating nothing in steady state.
//
// Every round is stepped clustered: runs are grouped by graph identity —
// the raw mask bytes, with constant-time fast paths when a run replays
// the same graph.Graph value as last round or as the run before it — and
// each cluster steps through one shared, cached StepPlan. A shared-graph
// round (Step) is the one-cluster case. The plan cache is bounded
// (SetPlanCacheCap) and instrumented (PlanCacheStats).
type BatchRunner struct {
	alg       DenseAlgorithm
	bs        BatchStepper
	cur, next *BatchState
	// hull is the per-call hull request relayed into the plans used by
	// the round's clusters.
	hull struct {
		want   bool
		lo, hi []float64
	}
	// viewsCur/viewsNext are persistent per-run views into cur/next,
	// swapped alongside the buffers, so the per-run paths pay two round
	// refreshes per step instead of rebuilding slice headers per use.
	// They stay valid across steps because the backing arrays are stable.
	viewsCur   []DenseState
	viewsNext  []DenseState
	outScratch []float64

	// Plan cache: mask-byte key -> entry, FIFO-bounded, plus the pooled
	// per-round clustering scratch. lastG/lastPlan are the per-run
	// identity memo: run i stepping the same graph.Graph value as last
	// round reuses its plan without touching the key buffer or the map.
	// allRuns is the precomputed 0..B-1 subset stepRuns shards, and
	// shared the runner-owned graph slice a Step round fills.
	plans      map[string]*planEntry
	planOrder  []*planEntry
	planHead   int
	planCap    int
	planFree   []*planEntry
	planDead   []*planEntry
	planHits   uint64
	planMisses uint64
	planEvicts uint64
	planDefers uint64
	keyBuf     []byte
	stepSeq    uint64
	clusters   []planCluster
	allRuns    []int
	shared     []graph.Graph
	lastG      []graph.Graph
	lastPlan   []*planEntry
	// pending is the per-round list of first-sight entries awaiting the
	// admission decision; doorkeeper is the direct-mapped table of
	// recently seen graph hashes that grants admission on second sight.
	pending    []*planEntry
	doorkeeper []uint64

	// Intra-step parallelism (parallel.go): par is the configured worker
	// count (0 = inherit the process default), job the pooled per-round
	// task list, and arena the coordinator's own executor scratch.
	// shardTasks counts the tasks of every parallel round, for the obs
	// series (obs.go).
	par        int
	job        stepJob
	arena      stepArena
	shardTasks uint64

	// tally holds the kernel metric counts not yet published (obs.go).
	tally kernelTally
}

// NewBatchRunner builds a runner from per-run raw inputs (inputs[r] is
// run r's initial value vector; all runs must share the agent count),
// mirroring NewDenseRunner per run: Y is loaded and InitDense finalizes
// each run's view at round 0.
func NewBatchRunner(alg DenseAlgorithm, inputs [][]float64) *BatchRunner {
	if len(inputs) == 0 {
		panic("core: empty batch")
	}
	b, n := len(inputs), len(inputs[0])
	r := &BatchRunner{alg: alg, cur: &BatchState{}, next: &BatchState{}}
	r.bs, _ = AsBatchStepper(alg)
	r.cur.Resize(b, n, alg.DensePlanes())
	r.next.Resize(b, n, alg.DensePlanes())
	r.viewsCur = make([]DenseState, b)
	r.viewsNext = make([]DenseState, b)
	r.allRuns = make([]int, b)
	for i := 0; i < b; i++ {
		r.cur.View(i, &r.viewsCur[i])
		r.next.View(i, &r.viewsNext[i])
		r.allRuns[i] = i
	}
	r.lastG = make([]graph.Graph, b)
	r.lastPlan = make([]*planEntry, b)
	r.shared = make([]graph.Graph, b)
	r.outScratch = make([]float64, n)
	for i, in := range inputs {
		if len(in) != n {
			panic(fmt.Sprintf("core: batch run %d has %d agents, want %d", i, len(in), n))
		}
		copy(r.cur.RunY(i), in)
		alg.InitDense(r.runView(i))
	}
	return r
}

// collectPlans moves graveyard entries no memo references any more to
// the free list for reuse. It runs between rounds, so an entry still
// clustered in the current round can never be rebuilt mid-round.
func (r *BatchRunner) collectPlans() {
	if len(r.planDead) == 0 {
		return
	}
	w := 0
	for _, e := range r.planDead {
		if e.refs == 0 {
			r.planFree = append(r.planFree, e)
		} else {
			r.planDead[w] = e
			w++
		}
	}
	for i := w; i < len(r.planDead); i++ {
		r.planDead[i] = nil
	}
	r.planDead = r.planDead[:w]
}

// SetPlanCacheCap bounds the step-plan cache to at most n plans
// (DefaultPlanCacheCap for n <= 0), evicting oldest-first immediately
// when over the new cap.
func (r *BatchRunner) SetPlanCacheCap(n int) {
	if n <= 0 {
		n = DefaultPlanCacheCap
	}
	r.planCap = n
	r.evictPlans(0)
}

// PlanCacheStats returns the plan cache's lifetime accounting: hits
// (per-run identity memo and key lookups served by an existing or
// about-to-be-built plan), misses (plans built), evictions, deferrals
// (first-sight single-run graphs stepped through the per-run path
// without building a plan), and the current entry count — the batch
// plane's counterpart of SweepCache.Stats, so benches can report plan
// reuse rates.
func (r *BatchRunner) PlanCacheStats() (hits, misses, evictions, deferrals uint64, entries int) {
	return r.planHits, r.planMisses, r.planEvicts, r.planDefers, len(r.plans)
}

// initPlans lazily readies the map and the cap.
func (r *BatchRunner) initPlans() {
	if r.plans == nil {
		r.plans = make(map[string]*planEntry)
	}
	if r.planCap <= 0 {
		r.planCap = DefaultPlanCacheCap
	}
}

// takeEntry pops a recycled entry from the free list, or allocates.
func (r *BatchRunner) takeEntry() *planEntry {
	if k := len(r.planFree) - 1; k >= 0 {
		e := r.planFree[k]
		r.planFree[k] = nil
		r.planFree = r.planFree[:k]
		e.dead = false
		return e
	}
	return &planEntry{}
}

// findPlan resolves g to a plan entry during a clustered round: the
// cache itself, then the round's pending first-sight entries, then a
// fresh pending entry holding g (plan unbuilt, key unmaterialized)
// whose admission is decided after the whole round is clustered.
func (r *BatchRunner) findPlan(g graph.Graph) *planEntry {
	r.initPlans()
	r.keyBuf = g.AppendMaskKey(r.keyBuf[:0])
	if e, ok := r.plans[string(r.keyBuf)]; ok {
		r.planHits++
		return e
	}
	h := maskHash(g)
	for _, e := range r.pending {
		if e.hash == h && string(r.keyBuf) == string(e.keyBytes) {
			r.planHits++
			return e
		}
	}
	e := r.takeEntry()
	e.keyBytes = append(e.keyBytes[:0], r.keyBuf...)
	e.hash = h
	e.plan.G = g
	r.pending = append(r.pending, e)
	return e
}

// admitPlan builds a pending entry's plan and inserts it into the
// cache, evicting oldest-first past the cap. Counts as the miss.
func (r *BatchRunner) admitPlan(e *planEntry) {
	r.planMisses++
	e.key = string(e.keyBytes)
	e.plan.build(e.plan.G)
	r.evictPlans(1)
	r.plans[e.key] = e
	r.planOrder = append(r.planOrder, e)
}

// maskHash hashes the graph's in-mask rows (FNV-1a over words) for the
// doorkeeper and for cheap pending-entry comparison. Single-word graphs
// hash one word per node — the exact pre-multi-word sequence.
func maskHash(g graph.Graph) uint64 {
	h := uint64(14695981039346656037)
	for j, n := 0, g.N(); j < n; j++ {
		for _, m := range g.InRow(j) {
			h ^= m
			h *= 1099511628211
		}
	}
	return h
}

// doorkeeperSeen reports whether hash h was recorded recently. Each
// hash has two candidate slots (low and high hash bits), so one aliased
// neighbor does not forget it — and a forgotten graph is merely
// deferred once more before admission.
func (r *BatchRunner) doorkeeperSeen(h uint64) bool {
	if len(r.doorkeeper) == 0 {
		return false
	}
	mask := uint64(len(r.doorkeeper) - 1)
	return r.doorkeeper[h&mask] == h || r.doorkeeper[(h>>32)&mask] == h
}

// doorkeeperRecord remembers hash h, sizing the table to the cache cap
// on first use (power of two, several slots per cacheable plan). The
// record prefers an empty or already-owned slot and otherwise overwrites
// the low-bits one.
func (r *BatchRunner) doorkeeperRecord(h uint64) {
	if len(r.doorkeeper) == 0 {
		size := 1
		for size < 8*r.planCap {
			size <<= 1
		}
		r.doorkeeper = make([]uint64, size)
	}
	mask := uint64(len(r.doorkeeper) - 1)
	s1, s2 := h&mask, (h>>32)&mask
	if r.doorkeeper[s1] == h || r.doorkeeper[s2] == h {
		return
	}
	if r.doorkeeper[s1] != 0 && r.doorkeeper[s2] == 0 {
		r.doorkeeper[s2] = h
		return
	}
	r.doorkeeper[s1] = h
}

// evictPlans drops oldest plans until the cache fits planCap minus
// room. Evicted entries stay valid for any cluster or per-run memo
// still holding them this round — they just stop being shared — and
// park in the graveyard until collectPlans recycles their storage.
func (r *BatchRunner) evictPlans(room int) {
	for len(r.plans)+room > r.planCap && r.planHead < len(r.planOrder) {
		old := r.planOrder[r.planHead]
		r.planOrder[r.planHead] = nil
		r.planHead++
		delete(r.plans, old.key)
		old.dead = true
		r.planDead = append(r.planDead, old)
		r.planEvicts++
	}
	if r.planHead > len(r.planOrder)/2 {
		r.planOrder = append(r.planOrder[:0], r.planOrder[r.planHead:]...)
		r.planHead = 0
	}
}

// runView returns run i's current view with a fresh round stamp.
func (r *BatchRunner) runView(i int) *DenseState {
	v := &r.viewsCur[i]
	v.round = r.cur.round
	return v
}

// B returns the number of runs.
func (r *BatchRunner) B() int { return r.cur.b }

// N returns the number of agents per run.
func (r *BatchRunner) N() int { return r.cur.n }

// Round returns the shared number of completed rounds.
func (r *BatchRunner) Round() int { return r.cur.round }

// State returns the current batch state. Callers must not mutate it.
func (r *BatchRunner) State() *BatchState { return r.cur }

// prep checks a round's node count and stamps the back buffer's round.
// Both buffers keep the shape NewBatchRunner gave them.
func (r *BatchRunner) prep(n int) {
	if n != r.cur.n {
		panic(fmt.Sprintf("core: graph on %d nodes applied to batch of %d agents", n, r.cur.n))
	}
	r.next.round = r.cur.round + 1
}

// Step applies one round with the shared communication graph g to every
// run: a StepEach round in which every run plays g, so the batch steps as
// one cluster through one cached plan.
func (r *BatchRunner) Step(g graph.Graph) {
	r.StepEach(r.fillShared(g))
}

// StepWithHulls is Step plus per-run output hulls, like
// StepEachWithHulls.
func (r *BatchRunner) StepWithHulls(g graph.Graph, lo, hi []float64) {
	r.StepEachWithHulls(r.fillShared(g), lo, hi)
}

// fillShared sets every run's slot of the runner-owned graph slice to g.
func (r *BatchRunner) fillShared(g graph.Graph) []graph.Graph {
	for i := range r.shared {
		r.shared[i] = g
	}
	return r.shared
}

// stepCluster steps the given run subset through e's plan, relaying the
// round's hull request, and reports whether the stepper delivered the
// hulls. The plan's per-call fields are cleared afterwards so cached
// plans never retain caller arrays.
func (r *BatchRunner) stepCluster(e *planEntry, runs []int) (hullDone bool) {
	p := &e.plan
	p.Runs = runs
	p.WantHull = r.hull.want
	p.HullLo, p.HullHi = r.hull.lo, r.hull.hi
	p.HullDone = false
	r.bs.StepDenseBatch(r.next, r.cur, p)
	hullDone = p.HullDone
	p.Runs = nil
	p.WantHull, p.HullDone = false, false
	p.HullLo, p.HullHi = nil, nil
	return hullDone
}

// swap flips the double buffer and its view arrays.
func (r *BatchRunner) swap() {
	r.cur, r.next = r.next, r.cur
	r.viewsCur, r.viewsNext = r.viewsNext, r.viewsCur
}

// scanHulls fills lo/hi with every run's output hull by scanning.
func (r *BatchRunner) scanHulls(lo, hi []float64) {
	for i := 0; i < r.cur.b; i++ {
		lo[i], hi[i] = r.Hull(i)
	}
}

// StepEach applies one round with per-run graphs (gs[i] drives run i),
// clustered: runs sharing a graph share one cached plan, lasso loops
// replaying a graph value reuse the run's last plan via the identity
// memo, and a round in which every run plays the same graph value (a
// Step round) is one cluster stepping one plan, with one key built.
func (r *BatchRunner) StepEach(gs []graph.Graph) {
	r.hull.want = false
	r.stepEach(gs)
}

// StepEachWithHulls is StepEach plus every run's post-round output hull
// in lo/hi (length B): computed inside the batched stepper from the
// segment folds when possible, by scanning the outputs otherwise. The
// hulls are bit-identical to calling Hull(i) per run either way.
func (r *BatchRunner) StepEachWithHulls(gs []graph.Graph, lo, hi []float64) {
	r.hull.want = true
	r.hull.lo, r.hull.hi = lo, hi
	if !r.stepEach(gs) {
		r.scanHulls(lo, hi)
	}
	r.hull.want, r.hull.lo, r.hull.hi = false, nil, nil
}

// stepEachRaw clusters the round's runs by graph identity and steps
// every cluster through its shared plan. It reports whether hulls were
// delivered for every run. The stepEach wrapper (obs.go) samples
// kernel metrics around it.
func (r *BatchRunner) stepEachRaw(gs []graph.Graph) (hullDone bool) {
	if len(gs) != r.cur.b {
		panic(fmt.Sprintf("core: %d graphs for a batch of %d runs", len(gs), r.cur.b))
	}
	if r.bs == nil {
		r.stepRuns(gs)
		return false
	}
	r.prep(gs[0].N())
	for i := 1; i < len(gs); i++ {
		if gs[i].N() != r.cur.n {
			panic(fmt.Sprintf("core: graph on %d nodes applied to batch of %d agents", gs[i].N(), r.cur.n))
		}
	}
	// Assign each run its plan — constant-time when the run replays the
	// same graph value as last round — and bucket runs into clusters via
	// the entries' step stamps. Cluster slots (and their run slices) are
	// pooled across rounds, so steady-state clustering allocates nothing.
	r.stepSeq++
	r.collectPlans()
	clusters := r.clusters[:0]
	var prev *planEntry
	for i, g := range gs {
		e := r.lastPlan[i]
		if e == nil || !g.Same(r.lastG[i]) {
			var ne *planEntry
			if prev != nil && g.Same(gs[i-1]) {
				// The run plays the previous run's graph value, as every
				// run of a Step round does: it joins that run's entry
				// without building a key.
				ne = prev
				r.planHits++
			} else {
				ne = r.findPlan(g)
			}
			if e != nil {
				e.refs--
			}
			ne.refs++
			r.lastG[i], r.lastPlan[i] = g, ne
			e = ne
		} else {
			r.planHits++
		}
		prev = e
		if e.mark != r.stepSeq {
			e.mark = r.stepSeq
			e.slot = len(clusters)
			if len(clusters) == cap(clusters) {
				clusters = append(clusters, planCluster{})
			} else {
				clusters = clusters[:len(clusters)+1]
			}
			c := &clusters[e.slot]
			c.e = e
			c.runs = c.runs[:0]
		}
		c := &clusters[e.slot]
		c.runs = append(c.runs, i)
	}
	// Admission: a first-sight graph gets a built, cached plan only if
	// several runs share it this round or the doorkeeper has seen it
	// before (a lasso or epoch revisiting its graph). A transient
	// singleton — the common case under high-diversity schedules, where
	// every plan would be built once and thrown away — is deferred: its
	// run steps through the per-run views (bit-identical by the
	// BatchStepper contract) and no key string, map traffic, or plan
	// build happens at all.
	for _, e := range r.pending {
		c := &clusters[e.slot]
		if len(c.runs) > 1 || r.doorkeeperSeen(e.hash) {
			r.admitPlan(e)
			continue
		}
		r.doorkeeperRecord(e.hash)
		r.planDefers++
		i := c.runs[0]
		e.refs--
		r.lastPlan[i] = nil
		c.e = nil
		if e.refs == 0 {
			r.planFree = append(r.planFree, e)
		} else {
			e.dead = true
			r.planDead = append(r.planDead, e)
		}
	}
	for i := range r.pending {
		r.pending[i] = nil
	}
	r.pending = r.pending[:0]
	hullDone = true
	if par := r.Parallelism(); par > 1 && r.cur.b > 1 {
		// Parallel round: shard every cluster into run-range tasks and
		// fan out. The clustering and admission above stay
		// coordinator-only, so the plan cache is never touched
		// concurrently.
		r.beginTasks(gs, r.hull.want)
		for ci := range clusters {
			c := &clusters[ci]
			r.addClusterTasks(c.e, c.runs, par, r.cur.b)
			c.e = nil
		}
		hullDone = r.runTasks(par)
	} else {
		for ci := range clusters {
			c := &clusters[ci]
			if c.e == nil {
				// Deferred singleton: step through the per-run views and,
				// when hulls were requested, scan this run's outputs right
				// here — the same OutputsDense+Hull sequence the post-swap
				// scan would run, so the round's hull delivery stays intact
				// for the clustered runs.
				i := c.runs[0]
				r.stepRun(i, gs[i])
				if r.hull.want {
					r.alg.OutputsDense(&r.viewsNext[i], r.outScratch)
					r.hull.lo[i], r.hull.hi[i] = Hull(r.outScratch)
				}
				continue
			}
			if !r.stepCluster(c.e, c.runs) {
				hullDone = false
			}
			c.e = nil
		}
	}
	r.clusters = clusters[:0]
	r.swap()
	return hullDone
}

// stepRuns applies one round with per-run graphs through the per-run
// views, without clustering — the generic path for algorithms with no
// BatchStepper.
func (r *BatchRunner) stepRuns(gs []graph.Graph) {
	r.prep(gs[0].N())
	for i := 0; i < r.cur.b; i++ {
		if gs[i].N() != r.cur.n {
			panic(fmt.Sprintf("core: graph on %d nodes applied to batch of %d agents", gs[i].N(), r.cur.n))
		}
	}
	if par := r.Parallelism(); par > 1 && r.cur.b > 1 {
		r.beginTasks(gs, false)
		r.addClusterTasks(nil, r.allRuns, par, len(r.allRuns))
		r.runTasks(par)
	} else {
		for i := 0; i < r.cur.b; i++ {
			r.stepRun(i, gs[i])
		}
	}
	r.swap()
}

// stepRun steps run i through its persistent views (the generic path).
func (r *BatchRunner) stepRun(i int, g graph.Graph) {
	src, dst := &r.viewsCur[i], &r.viewsNext[i]
	src.round = r.cur.round
	dst.round = r.next.round
	r.alg.StepDense(dst, src, g)
}

// Outputs writes run i's observable outputs into out (length N).
func (r *BatchRunner) Outputs(i int, out []float64) {
	r.alg.OutputsDense(r.runView(i), out)
}

// Hull returns the convex hull [lo, hi] of run i's observable outputs
// without allocating.
func (r *BatchRunner) Hull(i int) (lo, hi float64) {
	r.Outputs(i, r.outScratch)
	return Hull(r.outScratch)
}

// Diameter returns the output diameter of run i without allocating.
func (r *BatchRunner) Diameter(i int) float64 {
	lo, hi := r.Hull(i)
	return hi - lo
}

// MaterializeRun builds an agent configuration equivalent to run i.
func (r *BatchRunner) MaterializeRun(i int) *Config {
	return MaterializeDense(r.alg, r.runView(i))
}
