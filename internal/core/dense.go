package core

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// This file implements the dense struct-of-arrays execution path: flat
// float64 state stepped directly against the graph's in-neighbor bitmasks,
// with no Message structs, no per-agent cloning, and no virtual dispatch
// in the inner loop. The interface-based Agent path remains the reference
// semantics; dense steppers are required to reproduce it bit-for-bit
// (asserted by the differential tests, which reach the Agent path through
// AgentsOnly), so the runtime picks a path by capability alone: dense when
// AsDense succeeds and the pattern source is oblivious, agents otherwise.

// DenseState is the flat state of a configuration on the dense path:
// the value vector Y plus a fixed number of auxiliary planes, each a
// []float64 with one entry per agent (struct-of-arrays layout).
// Plane k of an n-agent state occupies Aux[k*n : (k+1)*n].
type DenseState struct {
	n      int
	round  int
	planes int
	// Y is the consensus variable vector y. For algorithms with internal
	// state beyond y (e.g. a decision wrapper), Y holds the broadcast
	// variable and the observable output is defined by OutputsDense.
	Y []float64
	// Aux holds the auxiliary planes, plane-major.
	Aux []float64
}

// N returns the number of agents.
func (st *DenseState) N() int { return st.n }

// Round returns the number of completed rounds.
func (st *DenseState) Round() int { return st.round }

// Planes returns the number of auxiliary planes.
func (st *DenseState) Planes() int { return st.planes }

// Plane returns auxiliary plane k (one float64 per agent).
func (st *DenseState) Plane(k int) []float64 {
	if k < 0 || k >= st.planes {
		panic(fmt.Sprintf("core: aux plane %d out of range [0,%d)", k, st.planes))
	}
	return st.Aux[k*st.n : (k+1)*st.n]
}

// Resize shapes the state for n agents and the given number of aux
// planes, reusing the backing arrays when possible. Contents are
// unspecified afterwards.
func (st *DenseState) Resize(n, planes int) {
	if n < 1 || n > graph.MaxNodes {
		panic(fmt.Sprintf("core: invalid agent count %d", n))
	}
	if planes < 0 {
		panic(fmt.Sprintf("core: negative aux plane count %d", planes))
	}
	st.n, st.planes = n, planes
	if cap(st.Y) < n {
		st.Y = make([]float64, n)
	}
	st.Y = st.Y[:n]
	if cap(st.Aux) < planes*n {
		st.Aux = make([]float64, planes*n)
	}
	st.Aux = st.Aux[:planes*n]
}

// DenseAlgorithm is the dense-path capability of an Algorithm: a
// stepper over flat state. Implementations must be bit-identical to the
// algorithm's Agent path — same float operations in the same order per
// agent, with senders visited in ascending index (the order Deliver
// receives the inbox in).
type DenseAlgorithm interface {
	Algorithm
	// DensePlanes returns the number of auxiliary float64 planes the
	// algorithm keeps besides Y.
	DensePlanes() int
	// InitDense finalizes a freshly shaped state whose Y holds the raw
	// inputs: snap values if the algorithm's domain requires it and fill
	// the aux planes. The round is 0.
	InitDense(st *DenseState)
	// StepDense writes the successor of src into dst. The caller has
	// already shaped dst (same n and planes as src) and set dst.round =
	// src.round + 1; the implementation must fully overwrite dst.Y and
	// every aux plane it owns. dst never aliases src.
	StepDense(dst, src *DenseState, g graph.Graph)
	// OutputsDense writes each agent's observable output (Agent.Output)
	// into out, which has length N. It must not read from out.
	OutputsDense(st *DenseState, out []float64)
}

// DenseProvider is an optional Algorithm capability for wrappers whose
// dense support depends on the wrapped algorithm (e.g. the deciding
// wrapper in internal/approx): Dense returns the dense view when
// available.
type DenseProvider interface {
	Dense() (DenseAlgorithm, bool)
}

// AsDense returns the dense view of alg: alg itself when it implements
// DenseAlgorithm directly, the provided view for DenseProvider wrappers,
// and ok = false otherwise.
func AsDense(alg Algorithm) (DenseAlgorithm, bool) {
	if d, ok := alg.(DenseAlgorithm); ok {
		return d, true
	}
	if p, ok := alg.(DenseProvider); ok {
		return p.Dense()
	}
	return nil, false
}

// AgentsOnly returns alg with its dense capability hidden: AsDense fails
// on the result, so Run, the vector runner, the valency settle loops and
// wrappers such as the deciding algorithm all step it on the Agent path.
// Name, convexity and agents are alg's own, so fingerprints and traces
// are directly comparable with the dense path's. Differential tests use
// it to reach the reference oracle.
func AgentsOnly(alg Algorithm) Algorithm { return agentsOnly{alg} }

// agentsOnly embeds only the Algorithm interface, so none of the wrapped
// value's optional capabilities (DenseAlgorithm, DenseProvider) are
// promoted.
type agentsOnly struct{ Algorithm }

// DenseStateWriter is an optional Agent capability: the agent writes its
// complete state into column i of a dense state shaped for its algorithm
// and reports whether it could (wrappers return false when their inner
// agent cannot). It bridges agent configurations into the dense path
// (Config.WriteDense).
type DenseStateWriter interface {
	WriteDense(st *DenseState, i int) bool
}

// DenseStateReader is the inverse capability: the agent overwrites its
// state from column i of a dense state. It bridges dense states back into
// agent configurations (MaterializeDense).
type DenseStateReader interface {
	ReadDense(st *DenseState, i int) bool
}

// DenseFingerprinter is an optional DenseAlgorithm capability: it appends
// the canonical fingerprint of agent i's dense state, bit-identical to the
// agent's core.Fingerprinter encoding, so a dense run reports the same
// per-round fingerprints as the Agent path (cmd/scenario replay
// -fingerprints).
type DenseFingerprinter interface {
	AppendDenseFingerprint(dst []byte, st *DenseState, i int) ([]byte, bool)
}

// AppendDenseFingerprint appends the configuration fingerprint of st —
// same format as Config.AppendFingerprint: agent count, completed round,
// then every agent's state in index order. ok is false when alg cannot
// fingerprint dense states.
func AppendDenseFingerprint(alg DenseAlgorithm, st *DenseState, dst []byte) (fp []byte, ok bool) {
	df, can := alg.(DenseFingerprinter)
	if !can {
		return dst, false
	}
	dst = AppendInt(dst, st.n)
	dst = AppendInt(dst, st.round)
	for i := 0; i < st.n; i++ {
		if dst, can = df.AppendDenseFingerprint(dst, st, i); !can {
			return dst, false
		}
	}
	return dst, true
}

// WriteDense shapes st for the configuration's algorithm and writes every
// agent's state into it. It reports false when the configuration has no
// dense-capable algorithm or some agent cannot export its state.
func (c *Config) WriteDense(st *DenseState) bool {
	if c.alg == nil {
		return false
	}
	d, ok := AsDense(c.alg)
	if !ok {
		return false
	}
	st.Resize(c.n, d.DensePlanes())
	st.round = c.round
	for i, a := range c.agents {
		w, ok := a.(DenseStateWriter)
		if !ok || !w.WriteDense(st, i) {
			return false
		}
	}
	return true
}

// MaterializeDense builds an agent configuration equivalent to the dense
// state: fresh agents from alg, each overwritten with its dense column.
// It panics when alg's agents do not implement DenseStateReader — dense
// support without the read bridge is a programmer error.
func MaterializeDense(alg DenseAlgorithm, st *DenseState) *Config {
	c := NewConfig(alg, st.Y)
	c.round = st.round
	for i, a := range c.agents {
		r, ok := a.(DenseStateReader)
		if !ok || !r.ReadDense(st, i) {
			panic(fmt.Sprintf("core: agents of %s lack ReadDense", alg.Name()))
		}
	}
	return c
}

// DenseRunner executes a dense algorithm with double-buffered state: Step
// computes the successor into the back buffer and swaps, allocating
// nothing after construction.
type DenseRunner struct {
	alg        DenseAlgorithm
	cur, next  *DenseState
	outScratch []float64
}

// NewDenseRunner builds a runner from raw inputs (one per agent).
func NewDenseRunner(alg DenseAlgorithm, inputs []float64) *DenseRunner {
	n := len(inputs)
	st := &DenseState{}
	st.Resize(n, alg.DensePlanes())
	copy(st.Y, inputs)
	alg.InitDense(st)
	back := &DenseState{}
	back.Resize(n, st.planes)
	return &DenseRunner{alg: alg, cur: st, next: back, outScratch: make([]float64, n)}
}

// N returns the number of agents.
func (r *DenseRunner) N() int { return r.cur.n }

// Round returns the number of completed rounds.
func (r *DenseRunner) Round() int { return r.cur.round }

// State returns the current dense state. Callers must not mutate it.
func (r *DenseRunner) State() *DenseState { return r.cur }

// Step applies one round with communication graph g.
func (r *DenseRunner) Step(g graph.Graph) {
	if g.N() != r.cur.n {
		panic(fmt.Sprintf("core: graph on %d nodes applied to %d agents", g.N(), r.cur.n))
	}
	DenseStep(r.alg, r.next, r.cur, g)
	r.cur, r.next = r.next, r.cur
}

// DenseStep advances src one round into dst, handling the bookkeeping the
// StepDense contract promises: dst is shaped like src and its round set to
// src.Round()+1 before the stepper runs. dst must not alias src.
func DenseStep(alg DenseAlgorithm, dst, src *DenseState, g graph.Graph) {
	if dst == src {
		panic("core: DenseStep destination aliases the source")
	}
	dst.Resize(src.n, src.planes)
	dst.round = src.round + 1
	alg.StepDense(dst, src, g)
}

// DenseSettler is an optional DenseAlgorithm capability: a settle kernel
// that runs a whole constant-graph continuation inside the algorithm —
// repeat g from st until the output hull is at most tol wide, for at
// most settle rounds. It must return exactly what Settle's generic loop
// returns: the same round and ok, and when ok the same lo and hi bits;
// when ok is false, round is settle and lo, hi are 0. It may overwrite
// st and use sc's kernel storage (RowClasses, ClassValues). Settle
// picks the kernel by this capability alone.
type DenseSettler interface {
	SettleDense(st *DenseState, g graph.Graph, settle int, tol float64, sc *SettleScratch) (lo, hi float64, round int, ok bool)
}

// Settle runs the continuation that repeats g from st until the
// observable outputs span at most tol, for at most settle rounds. ok
// reports convergence, at round round with output hull [lo, hi]; on
// failure round is settle and lo, hi are 0. st is overwritten. An
// algorithm with a DenseSettler kernel runs it; every other one runs the
// generic loop: the hull of OutputsDense, then DenseStep, ping-ponging
// st with the scratch's back buffer. Neither allocates once sc has
// grown to the shape.
func Settle(alg DenseAlgorithm, st *DenseState, g graph.Graph, settle int, tol float64, sc *SettleScratch) (lo, hi float64, round int, ok bool) {
	if g.N() != st.n {
		panic(fmt.Sprintf("core: graph on %d nodes applied to %d agents", g.N(), st.n))
	}
	if k, can := alg.(DenseSettler); can {
		return k.SettleDense(st, g, settle, tol, sc)
	}
	if cap(sc.out) < st.n {
		sc.out = make([]float64, st.n)
	}
	out := sc.out[:st.n]
	cur, next := st, &sc.back
	for r := 0; ; r++ {
		alg.OutputsDense(cur, out)
		if lo, hi = Hull(out); hi-lo <= tol {
			return lo, hi, r, true
		}
		if r == settle {
			return 0, 0, r, false
		}
		DenseStep(alg, next, cur, g)
		cur, next = next, cur
	}
}

// SettleScratch is Settle's reusable working memory: the generic loop's
// back buffer and output slice, and the row classes and per-class values
// of the kernels. Every part grows to the largest shape seen.
type SettleScratch struct {
	back    DenseState
	out     []float64
	classes RowClasses
	vals    []float64
}

// RowClasses returns the receiver row classes of g, built in the
// scratch's storage; they stay valid until its next RowClasses call.
func (sc *SettleScratch) RowClasses(g graph.Graph) *RowClasses {
	sc.classes.build(g)
	return &sc.classes
}

// ClassValues returns two length-k slices of the scratch's storage, the
// current and next generation of a kernel's per-class values.
func (sc *SettleScratch) ClassValues(k int) (cur, next []float64) {
	if cap(sc.vals) < 2*k {
		sc.vals = make([]float64, 2*k)
	}
	return sc.vals[:k:k], sc.vals[k : 2*k : 2*k]
}

// RowClasses partitions a graph's receivers by in-row: receivers with
// equal rows form one class, numbered in order of first occurrence.
// Under a constant graph every receiver of a class computes the same
// value from the first round on, so a kernel can step k ≤ n classes in
// place of n receivers, each folding the distinct classes of its
// senders. The arrays hold at most n classes and k² ≤ n² sender entries.
type RowClasses struct {
	// Rep[c] is class c's first receiver; its in-row is the class's row.
	Rep []int32
	// Senders[Start[c]:Start[c+1]] lists the distinct classes of class c's
	// senders, in order of first occurrence in its row; the self-loop
	// makes every list non-empty.
	Start, Senders []int32
	// of[i] is receiver i's class; mark[d] is the last class whose sender
	// list took class d.
	of, mark []int32
}

// build classifies g's receivers, reusing the arrays' storage. It
// compares each row with one row per class found so far: O(n·k) row
// compares.
func (rc *RowClasses) build(g graph.Graph) {
	n := g.N()
	if cap(rc.of) < n {
		rc.of = make([]int32, n)
	}
	rc.of = rc.of[:n]
	rc.Rep = rc.Rep[:0]
	for j := range rc.of {
		row, c := g.InRow(j), int32(-1)
		for ci, rep := range rc.Rep {
			if graph.SetsEqual(row, g.InRow(int(rep))) {
				c = int32(ci)
				break
			}
		}
		if c < 0 {
			c = int32(len(rc.Rep))
			rc.Rep = append(rc.Rep, int32(j))
		}
		rc.of[j] = c
	}
	k := len(rc.Rep)
	if cap(rc.mark) < k {
		rc.mark = make([]int32, k)
	}
	rc.mark = rc.mark[:k]
	for d := range rc.mark {
		rc.mark[d] = -1
	}
	rc.Start, rc.Senders = rc.Start[:0], rc.Senders[:0]
	for c, rep := range rc.Rep {
		rc.Start = append(rc.Start, int32(len(rc.Senders)))
		for wi, m := range g.InRow(int(rep)) {
			for ; m != 0; m &= m - 1 {
				if d := rc.of[wi*64+bits.TrailingZeros64(m)]; rc.mark[d] != int32(c) {
					rc.mark[d] = int32(c)
					rc.Senders = append(rc.Senders, d)
				}
			}
		}
	}
	rc.Start = append(rc.Start, int32(len(rc.Senders)))
}

// Outputs returns a fresh slice of the observable outputs.
func (r *DenseRunner) Outputs() []float64 {
	out := make([]float64, r.cur.n)
	r.alg.OutputsDense(r.cur, out)
	return out
}

// Hull returns the convex hull [lo, hi] of the observable outputs without
// allocating.
func (r *DenseRunner) Hull() (lo, hi float64) {
	r.alg.OutputsDense(r.cur, r.outScratch)
	return Hull(r.outScratch)
}

// Diameter returns the diameter of the observable outputs without
// allocating.
func (r *DenseRunner) Diameter() float64 {
	lo, hi := r.Hull()
	return hi - lo
}

// Output returns agent i's observable output.
func (r *DenseRunner) Output(i int) float64 {
	r.alg.OutputsDense(r.cur, r.outScratch)
	return r.outScratch[i]
}

// Config materializes the runner's state as an agent configuration.
func (r *DenseRunner) Config() *Config { return MaterializeDense(r.alg, r.cur) }
