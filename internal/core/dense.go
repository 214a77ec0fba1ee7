package core

import (
	"fmt"

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
	// Y is the consensus variable vector y: Y[i] is agent i's
	// Agent.Output(), bit for bit, so runners and the valency walk read
	// outputs straight from it.
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

// CopyFrom makes st an exact copy of src: agent count, completed round,
// Y and every aux plane. It allocates only when st must grow. The round
// is part of the copy because steppers may act by round (the amortized
// midpoint's phase) and fingerprints encode it.
func (st *DenseState) CopyFrom(src *DenseState) {
	st.Resize(src.n, src.planes)
	st.round = src.round
	copy(st.Y, src.Y)
	copy(st.Aux, src.Aux)
}

// DenseAlgorithm is the dense-path capability of an Algorithm: a
// stepper over flat state. Implementations must be bit-identical to the
// algorithm's Agent path — same float operations in the same order per
// agent, with senders visited in ascending index (the order Deliver
// receives the inbox in). Y[i] of every state they produce is agent i's
// Agent.Output(), bit for bit: the dense path has no other output.
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
}

// AsDense returns alg's dense stepper, and ok = false when it has none.
func AsDense(alg Algorithm) (DenseAlgorithm, bool) {
	d, ok := alg.(DenseAlgorithm)
	return d, ok
}

// AgentsOnly returns alg with its dense capability hidden: AsDense fails
// on the result, so Run, the vector runner and the valency settle loops
// all step it on the Agent path.
// Name, convexity and agents are alg's own, and the result declares
// SelfRootKeeper exactly when alg does, with alg's answers: the
// closed-form limit is a property of the algorithm's mathematics, not of
// an execution path. So fingerprints, traces, valency bounds and the
// valency engine's decisions are directly comparable with the dense
// path's. Differential tests use it to reach the reference oracle.
func AgentsOnly(alg Algorithm) Algorithm {
	if k, ok := alg.(SelfRootKeeper); ok {
		return agentsOnlyKeeper{agentsOnly{alg}, k}
	}
	return agentsOnly{alg}
}

// agentsOnly embeds only the Algorithm interface, so none of the wrapped
// value's optional capabilities (DenseAlgorithm, BatchStepper) are
// promoted.
type agentsOnly struct{ Algorithm }

// agentsOnlyKeeper is agentsOnly for an algorithm that declares
// SelfRootKeeper, which it forwards.
type agentsOnlyKeeper struct {
	agentsOnly
	SelfRootKeeper
}

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
	return st.AppendFingerprint(df, dst)
}

// AppendFingerprint is AppendDenseFingerprint with the capability already
// resolved, for callers that fingerprint many states of one algorithm
// (the valency engine resolves it once per query).
func (st *DenseState) AppendFingerprint(df DenseFingerprinter, dst []byte) (fp []byte, ok bool) {
	dst = AppendInt(dst, st.n)
	dst = AppendInt(dst, st.round)
	for i := 0; i < st.n; i++ {
		if dst, ok = df.AppendDenseFingerprint(dst, st, i); !ok {
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
	alg       DenseAlgorithm
	cur, next *DenseState
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
	return &DenseRunner{alg: alg, cur: st, next: back}
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
// st. Settle picks the kernel by this capability alone.
type DenseSettler interface {
	SettleDense(st *DenseState, g graph.Graph, settle int, tol float64) (lo, hi float64, round int, ok bool)
}

// Settle runs the continuation that repeats g from st until the
// observable outputs span at most tol, for at most settle rounds. ok
// reports convergence, at round round with output hull [lo, hi]; on
// failure round is settle and lo, hi are 0. st is overwritten. An
// algorithm with a DenseSettler kernel runs it; every other one runs the
// generic loop: the hull of Y, then DenseStep, ping-ponging st with the
// scratch's back buffer. Neither allocates once sc has grown to the
// shape.
func Settle(alg DenseAlgorithm, st *DenseState, g graph.Graph, settle int, tol float64, sc *SettleScratch) (lo, hi float64, round int, ok bool) {
	if g.N() != st.n {
		panic(fmt.Sprintf("core: graph on %d nodes applied to %d agents", g.N(), st.n))
	}
	if k, can := alg.(DenseSettler); can {
		return k.SettleDense(st, g, settle, tol)
	}
	cur, next := st, &sc.back
	for r := 0; ; r++ {
		if lo, hi = Hull(cur.Y); hi-lo <= tol {
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
// back buffer, grown to the largest shape seen.
type SettleScratch struct {
	back DenseState
}

// Outputs returns a fresh slice of the observable outputs.
func (r *DenseRunner) Outputs() []float64 {
	out := make([]float64, r.cur.n)
	copy(out, r.cur.Y)
	return out
}

// Hull returns the convex hull [lo, hi] of the observable outputs without
// allocating.
func (r *DenseRunner) Hull() (lo, hi float64) {
	return Hull(r.cur.Y)
}

// Diameter returns the diameter of the observable outputs without
// allocating.
func (r *DenseRunner) Diameter() float64 {
	lo, hi := r.Hull()
	return hi - lo
}

// Output returns agent i's observable output.
func (r *DenseRunner) Output(i int) float64 { return r.cur.Y[i] }

// Config materializes the runner's state as an agent configuration.
func (r *DenseRunner) Config() *Config { return MaterializeDense(r.alg, r.cur) }
