package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/model"
)

// This file implements the composable schedule generators: concrete
// dynamic-network scenarios (model draws, partitions that heal, churn,
// eventually rooted runs) and the lasso algebra that combines them
// (Repeat, Concat, Interleave). Every generator is deterministic in its
// arguments — randomized ones take an explicit seed — so a generated
// schedule is as replayable as a recorded one.

// FromModel returns the finite schedule of rounds uniform draws from the
// model, using the given seed — the recorded form of the "random"
// adversary, detached from any session.
func FromModel(m *model.Model, seed int64, rounds int) (*Schedule, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("scenario: FromModel needs rounds >= 1, got %d", rounds)
	}
	if rounds > maxGeneratedRounds {
		return nil, fmt.Errorf("scenario: FromModel rounds %d exceeds the %d cap", rounds, maxGeneratedRounds)
	}
	rng := rand.New(rand.NewSource(seed))
	gs := make([]graph.Graph, rounds)
	for t := range gs {
		gs[t] = m.Graph(rng.Intn(m.Size()))
	}
	return New(m.N(), gs...)
}

// maxGeneratedRounds bounds materialized generator output; far below the
// codec cap, since generated prefixes are meant to be human-sized.
const maxGeneratedRounds = 1 << 20

// checkAgents validates a generator's agent count up front: generators
// are fed spec strings from untrusted sources (the server's scenario
// endpoint), so an out-of-range n must error here, before any
// graph-package constructor panics on it.
func checkAgents(n int) error {
	if n < 1 || n > graph.MaxNodes {
		return fmt.Errorf("scenario: invalid agent count %d (want 1..%d)", n, graph.MaxNodes)
	}
	return nil
}

// PartitionHeal returns the schedule in which the agents are split into
// the given number of contiguous, equally sized blocks that communicate
// only internally (complete within a block, silence across) for healAt
// rounds, after which the network heals into the complete graph forever.
// With two or more blocks the partition rounds are unrooted — no agent
// reaches the other blocks — so the schedule is a canonical
// eventually-rooted workload: consensus can only contract once healing
// starts.
func PartitionHeal(n, blocks, healAt int) (*Schedule, error) {
	if err := checkAgents(n); err != nil {
		return nil, err
	}
	if blocks < 1 || blocks > n {
		return nil, fmt.Errorf("scenario: %d partition blocks for %d agents", blocks, n)
	}
	if healAt < 0 || healAt > maxGeneratedRounds {
		return nil, fmt.Errorf("scenario: heal round %d out of range [0,%d]", healAt, maxGeneratedRounds)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// Contiguous blocks: agent k belongs to block k*blocks/n.
			if i*blocks/n == j*blocks/n {
				b.Edge(i, j)
			}
		}
	}
	part := b.Graph()
	prefix := make([]graph.Graph, healAt)
	for t := range prefix {
		prefix[t] = part
	}
	return NewLasso(n, prefix, []graph.Graph{graph.Complete(n)})
}

// Churn returns the schedule of epochs epochs, each holding one topology
// for period rounds: a random subset of at most maxDown agents is down —
// a down agent's transmitter fails, so it keeps listening to every up
// agent but nobody hears it — while the up agents form a complete
// cluster. Every round stays rooted (any up agent reaches everyone), so
// churn schedules satisfy the paper's asymptotic-consensus precondition
// while stressing the engines with per-epoch topology changes.
func Churn(n int, seed int64, period, epochs, maxDown int) (*Schedule, error) {
	if err := checkAgents(n); err != nil {
		return nil, err
	}
	if period < 1 || epochs < 1 {
		return nil, fmt.Errorf("scenario: Churn needs period >= 1 and epochs >= 1, got %d and %d", period, epochs)
	}
	if maxDown < 0 || maxDown >= n {
		return nil, fmt.Errorf("scenario: Churn needs 0 <= maxDown < n, got maxDown=%d n=%d", maxDown, n)
	}
	// Division form: period*epochs would overflow for hostile values.
	if period > maxGeneratedRounds/epochs {
		return nil, fmt.Errorf("scenario: Churn schedule of %d x %d rounds exceeds the %d cap", period, epochs, maxGeneratedRounds)
	}
	rng := rand.New(rand.NewSource(seed))
	prefix := make([]graph.Graph, 0, period*epochs)
	upRow := make([]uint64, graph.WordsFor(n))
	for e := 0; e < epochs; e++ {
		downCount := rng.Intn(maxDown + 1)
		// Edge i -> j: i transmits to j. Down agents do not transmit;
		// everyone (down agents included) hears every up agent. Every
		// receiver therefore shares the all-up in-row, plus its own
		// self-loop: the broadcast of the up set.
		for w := range upRow {
			upRow[w] = ^uint64(0)
		}
		for _, i := range rng.Perm(n)[:downCount] {
			upRow[i/64] &^= 1 << uint(i%64)
		}
		g := graph.Broadcast(n, upRow)
		for t := 0; t < period; t++ {
			prefix = append(prefix, g)
		}
	}
	return New(n, prefix...)
}

// EventuallyRooted returns the schedule that plays k silent rounds (the
// identity graph: nobody hears anybody, unrooted for n >= 2) and then
// the complete graph forever — the minimal eventually-rooted(k)
// schedule. Certify reports the silent prefix via FirstUnrooted and the
// healed tail via RootedWindow.
func EventuallyRooted(n, k int) (*Schedule, error) {
	if err := checkAgents(n); err != nil {
		return nil, err
	}
	if k < 0 || k > maxGeneratedRounds {
		return nil, fmt.Errorf("scenario: EventuallyRooted needs 0 <= k <= %d, got %d", maxGeneratedRounds, k)
	}
	silent := graph.New(n)
	prefix := make([]graph.Graph, k)
	for t := range prefix {
		prefix[t] = silent
	}
	return NewLasso(n, prefix, []graph.Graph{graph.Complete(n)})
}

// Repeat returns the schedule playing s's prefix k times and then s's
// loop (for finite s: the prefix k times, then its last graph forever).
func Repeat(s *Schedule, k int) (*Schedule, error) {
	if k < 1 {
		return nil, fmt.Errorf("scenario: Repeat needs k >= 1, got %d", k)
	}
	// Division form: len(prefix)*k would overflow for hostile k.
	if len(s.prefix) > 0 && k > maxGeneratedRounds/len(s.prefix) {
		return nil, fmt.Errorf("scenario: Repeat of %d x %d rounds exceeds the %d cap", len(s.prefix), k, maxGeneratedRounds)
	}
	prefix := make([]graph.Graph, 0, len(s.prefix)*k)
	for i := 0; i < k; i++ {
		prefix = append(prefix, s.prefix...)
	}
	return NewLasso(s.n, prefix, s.loop)
}

// Concat returns the schedule playing the given schedules back to back.
// Every schedule except the last must be finite (an infinite loop never
// hands over); the result inherits the last schedule's loop.
func Concat(ss ...*Schedule) (*Schedule, error) {
	if len(ss) == 0 {
		return nil, fmt.Errorf("scenario: Concat of no schedules")
	}
	n := ss[0].n
	total := 0
	for i, s := range ss {
		if s.n != n {
			return nil, fmt.Errorf("scenario: Concat mixes %d and %d agents", n, s.n)
		}
		if i < len(ss)-1 && !s.Finite() {
			return nil, fmt.Errorf("scenario: Concat operand %d is infinite (only the last may loop)", i)
		}
		total += len(s.prefix)
	}
	if total > maxGeneratedRounds {
		return nil, fmt.Errorf("scenario: Concat of %d rounds exceeds the %d cap", total, maxGeneratedRounds)
	}
	prefix := make([]graph.Graph, 0, total)
	for _, s := range ss {
		prefix = append(prefix, s.prefix...)
	}
	return NewLasso(n, prefix, ss[len(ss)-1].loop)
}

// Interleave returns the schedule alternating rounds of a and b on their
// own clocks: round 2t-1 plays a's round t, round 2t plays b's round t.
// The result is again a lasso: its prefix covers both operands' prefixes
// and its loop is one period of the combined tail (2·lcm of the loop
// lengths).
func Interleave(a, b *Schedule) (*Schedule, error) {
	if a.n != b.n {
		return nil, fmt.Errorf("scenario: Interleave mixes %d and %d agents", a.n, b.n)
	}
	// Operand clocks enter their loops after their prefixes; treat a
	// finite schedule as looping on its last graph (length 1).
	la, lb := len(a.loop), len(b.loop)
	if la == 0 {
		la = 1
	}
	if lb == 0 {
		lb = 1
	}
	p := max(len(a.prefix), len(b.prefix))
	l := lcm(la, lb)
	if 2*(p+l) > maxGeneratedRounds {
		return nil, fmt.Errorf("scenario: Interleave of %d rounds exceeds the %d cap", 2*(p+l), maxGeneratedRounds)
	}
	weave := func(from, to int) []graph.Graph {
		out := make([]graph.Graph, 0, 2*(to-from))
		for t := from + 1; t <= to; t++ {
			out = append(out, a.At(t), b.At(t))
		}
		return out
	}
	return NewLasso(a.n, weave(0, p), weave(p, p+l))
}

// lcm returns the least common multiple of two positive integers.
func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}
