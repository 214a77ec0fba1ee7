// Package scenario makes dynamic-network schedules a first-class
// artifact: a Schedule is a concrete, replayable round-by-round sequence
// of communication graphs — partitions that heal, churn, eventually
// rooted runs, recorded adversary traces — that can be persisted to a
// compact deterministic binary trace, fingerprinted, certified against
// the paper's solvability preconditions (rooted, non-split, model
// membership; Függer, Nowak, Schwarz, PODC 2018, Sections 2 and 8), and
// replayed exactly on either execution path.
//
// A Schedule is a lasso rho·lambda^omega: a finite prefix of per-round
// graphs followed by a loop that repeats forever. Every ultimately
// periodic schedule has this shape, so infinite scenarios (a partition
// that heals into a stable topology, periodic churn) stay finitely
// encodable; a Schedule with an empty loop is a finite trace that
// extends by repeating its last graph. Composable generators (FromModel,
// PartitionHeal, Churn, EventuallyRooted, Repeat, Concat, Interleave,
// Recorded) build schedules; Encode/Decode round-trip them losslessly;
// Certify checks their properties; Source lowers them to the execution
// engines, where they are oblivious pattern sources and therefore run on
// the dense path and batch onto the batched execution plane.
package scenario

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	codec "repro/internal/scenario"
)

// Schedule is an immutable round-by-round dynamic-network schedule in
// lasso form. The zero value is not valid; use New, NewLasso, Decode, or
// a generator.
type Schedule struct {
	n      int
	prefix []graph.Graph
	loop   []graph.Graph

	// fp memoizes Fingerprint: schedules are immutable and every
	// consumer of one (session identity, sweep caching, registry
	// caching, tile ordering) keys on the same digest, so it is
	// computed at most once per schedule.
	fpOnce sync.Once
	fp     string
}

// New returns the finite schedule playing the given graphs in order
// (rounds beyond the last graph repeat it). At least one graph is
// required and all must share the node count n.
func New(n int, graphs ...graph.Graph) (*Schedule, error) {
	return NewLasso(n, graphs, nil)
}

// NewLasso returns the schedule playing prefix once and then loop
// forever (an empty loop repeats the last prefix graph). The schedule
// must be non-empty and every graph must be on n nodes.
func NewLasso(n int, prefix, loop []graph.Graph) (*Schedule, error) {
	if n < 1 || n > graph.MaxNodes {
		return nil, fmt.Errorf("scenario: invalid agent count %d (want 1..%d)", n, graph.MaxNodes)
	}
	if len(prefix)+len(loop) == 0 {
		return nil, fmt.Errorf("scenario: empty schedule")
	}
	if len(prefix) > codec.MaxRounds || len(loop) > codec.MaxRounds {
		return nil, fmt.Errorf("scenario: schedule of %d+%d rounds exceeds the %d-round cap",
			len(prefix), len(loop), codec.MaxRounds)
	}
	s := &Schedule{
		n:      n,
		prefix: append([]graph.Graph(nil), prefix...),
		loop:   append([]graph.Graph(nil), loop...),
	}
	for i, g := range s.prefix {
		if g.N() != n {
			return nil, fmt.Errorf("scenario: prefix round %d is on %d nodes, want %d", i+1, g.N(), n)
		}
	}
	for i, g := range s.loop {
		if g.N() != n {
			return nil, fmt.Errorf("scenario: loop round %d is on %d nodes, want %d", i+1, g.N(), n)
		}
	}
	return s, nil
}

// N returns the number of agents.
func (s *Schedule) N() int { return s.n }

// PrefixLen returns the number of prefix rounds.
func (s *Schedule) PrefixLen() int { return len(s.prefix) }

// LoopLen returns the loop length; 0 marks a finite schedule (the last
// prefix graph repeats).
func (s *Schedule) LoopLen() int { return len(s.loop) }

// Finite reports whether the schedule is a finite trace (empty loop).
func (s *Schedule) Finite() bool { return len(s.loop) == 0 }

// Horizon returns the number of rounds after which the schedule is fully
// exhibited: the prefix plus one full loop iteration (just the prefix
// for finite schedules). It is the default certification and replay
// horizon.
func (s *Schedule) Horizon() int { return len(s.prefix) + len(s.loop) }

// At returns the communication graph of the given round (1-based). It
// delegates to the execution-engine source, so what Certify and
// inspection see is by construction what a replay plays.
func (s *Schedule) At(round int) graph.Graph {
	return core.Schedule{Prefix: s.prefix, Loop: s.loop}.At(round)
}

// Graphs materializes the first rounds graphs of the schedule.
func (s *Schedule) Graphs(rounds int) []graph.Graph {
	out := make([]graph.Graph, rounds)
	for t := range out {
		out[t] = s.At(t + 1)
	}
	return out
}

// Source lowers the schedule to an execution-engine pattern source. The
// source is oblivious, so schedule-driven runs use the dense path and
// tile onto the batched execution plane.
func (s *Schedule) Source() core.PatternSource {
	return core.Schedule{Prefix: s.prefix, Loop: s.loop}
}

// Encode serializes the schedule to the canonical binary trace format
// (see repro/internal/scenario for the layout). Equal schedules encode
// to equal bytes.
func (s *Schedule) Encode() []byte { return codec.Encode(s.n, s.prefix, s.loop) }

// Decode parses a binary trace produced by Encode.
func Decode(data []byte) (*Schedule, error) {
	n, prefix, loop, err := codec.Decode(data)
	if err != nil {
		return nil, err
	}
	return NewLasso(n, prefix, loop)
}

// Fingerprint returns the hex SHA-256 digest of the canonical encoding —
// the schedule's identity, computed once and memoized. Two schedules are
// interchangeable for replay iff their fingerprints agree.
func (s *Schedule) Fingerprint() string {
	s.fpOnce.Do(func() { s.fp = codec.Fingerprint(s.n, s.prefix, s.loop) })
	return s.fp
}

// Equal reports whether the two schedules play identical graphs in every
// round (same lasso decomposition).
func (s *Schedule) Equal(t *Schedule) bool {
	if s.n != t.n || len(s.prefix) != len(t.prefix) || len(s.loop) != len(t.loop) {
		return false
	}
	for i := range s.prefix {
		if !s.prefix[i].Equal(t.prefix[i]) {
			return false
		}
	}
	for i := range s.loop {
		if !s.loop[i].Equal(t.loop[i]) {
			return false
		}
	}
	return true
}

// graphMemoKey returns g's raw little-endian mask rows appended to
// buf[:0] — the cheap per-graph memo key (the same representation the
// codec dedups on; an order of magnitude cheaper than the fmt-formatted
// graph.Key, which matters on million-round certifications). At any
// width the key is the full row words, so multi-word graphs memo just
// as cheaply.
func graphMemoKey(buf []byte, g graph.Graph) []byte {
	return g.AppendMaskKey(buf[:0])
}

// DistinctGraphs returns the number of distinct graphs the schedule ever
// plays.
func (s *Schedule) DistinctGraphs() int {
	seen := make(map[string]struct{}, 8)
	var key []byte
	for _, g := range s.prefix {
		key = graphMemoKey(key, g)
		seen[string(key)] = struct{}{}
	}
	for _, g := range s.loop {
		key = graphMemoKey(key, g)
		seen[string(key)] = struct{}{}
	}
	return len(seen)
}

// String renders a compact summary, e.g.
// "scenario(n=4, prefix=6, loop=2, fp=1a2b3c4d)".
func (s *Schedule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario(n=%d, prefix=%d", s.n, len(s.prefix))
	if len(s.loop) > 0 {
		fmt.Fprintf(&sb, ", loop=%d", len(s.loop))
	}
	fmt.Fprintf(&sb, ", fp=%.8s)", s.Fingerprint())
	return sb.String()
}

// Recorder wraps any pattern source — benign scheduler or adaptive
// adversary — and captures every graph it plays, so the run can be
// persisted and replayed exactly. It implements core.PatternSource and
// declares itself oblivious exactly when the wrapped source is, so
// recording never changes which execution path a run takes.
type Recorder struct {
	src    core.PatternSource
	n      int
	graphs []graph.Graph
}

// NewRecorder wraps src, recording graphs on n agents.
func NewRecorder(src core.PatternSource, n int) *Recorder {
	return &Recorder{src: src, n: n}
}

// Next implements core.PatternSource.
func (r *Recorder) Next(round int, c *core.Config) graph.Graph {
	g := r.src.Next(round, c)
	r.graphs = append(r.graphs, g)
	return g
}

// ObliviousSource implements core.Oblivious by delegation.
func (r *Recorder) ObliviousSource() bool { return core.IsOblivious(r.src) }

// Rounds returns the number of rounds recorded so far.
func (r *Recorder) Rounds() int { return len(r.graphs) }

// Schedule returns the finite schedule of the rounds recorded so far.
func (r *Recorder) Schedule() (*Schedule, error) {
	return Recorded(r.n, r.graphs)
}

// Recorded returns the finite schedule replaying a captured graph
// sequence (e.g. core.Trace.Graphs of an adversary-driven run).
func Recorded(n int, graphs []graph.Graph) (*Schedule, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("scenario: recorded run played no rounds")
	}
	return New(n, graphs...)
}
