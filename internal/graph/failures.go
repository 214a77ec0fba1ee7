package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// This file generates the communication graphs that arise from the benign
// classical failure models the paper's introduction points to (property
// (i) of non-split graphs, Section 1): synchronous rounds with crashes,
// synchronous rounds with send omissions, and asynchronous rounds with a
// minority of crashes. Each generator produces exactly the per-round
// graphs the failure model permits, and each family is non-split — which
// is what puts these classical systems inside the scope of the paper's
// non-split bounds (Theorem 2 and the midpoint algorithm's matching 1/2).

// check64 panics when n exceeds one mask word: the classical failure-model
// generators take uint64 node sets in their signatures and stay capped at
// 64 agents (the large-n plane has no use for them; scenario churn covers
// crash-style dynamics there).
func check64(n int, op string) {
	if n > wordBits {
		panic(fmt.Sprintf("graph: %s supports n <= 64, got %d", op, n))
	}
}

// SynchronousCrashRound returns the communication graph of one synchronous
// round in which the agents in the crashed set have crashed earlier (send
// nothing) and the agents in the crashing set crash during this round's
// broadcast: crashing agent i's message reaches only the recipients in
// reach[i] (a bitmask; i itself is excluded automatically because a
// crashed agent's state no longer matters — by convention it keeps its
// self-loop so the graph stays well-formed).
//
// All correct agents hear all correct agents, so any two nodes share every
// correct agent as a common in-neighbor: for crashed+crashing < n the
// graph is non-split.
func SynchronousCrashRound(n int, crashed uint64, crashing map[int]uint64) (Graph, error) {
	checkN(n)
	if n > wordBits {
		return Graph{}, fmt.Errorf("graph: SynchronousCrashRound supports n <= 64, got %d", n)
	}
	all := fullMask(n)
	if crashed&^all != 0 {
		return Graph{}, fmt.Errorf("graph: crashed set references nodes >= %d", n)
	}
	silent := crashed
	for i, reach := range crashing {
		if i < 0 || i >= n {
			return Graph{}, fmt.Errorf("graph: crashing agent %d out of range", i)
		}
		if crashed&(1<<uint(i)) != 0 {
			return Graph{}, fmt.Errorf("graph: agent %d both crashed and crashing", i)
		}
		if reach&^all != 0 {
			return Graph{}, fmt.Errorf("graph: reach set of %d references nodes >= %d", i, n)
		}
	}
	b := NewBuilder(n)
	for j := 0; j < n; j++ {
		// j hears every agent that is neither silent nor crashing...
		mask := all &^ silent
		for i := range crashing {
			mask &^= 1 << uint(i)
		}
		// ...plus any crashing agent whose final broadcast reaches j.
		for i, reach := range crashing {
			if reach&(1<<uint(j)) != 0 {
				mask |= 1 << uint(i)
			}
		}
		b.SetInRow(j, []uint64{mask})
	}
	return b.Graph(), nil
}

// RandomSynchronousCrashRound samples a round graph with up to f agents
// crashing during the round (uncleanly, random recipient sets) on top of
// a random set of up to fPrior earlier crashes, keeping at least one
// correct agent.
func RandomSynchronousCrashRound(rng *rand.Rand, n, fPrior, f int) Graph {
	checkN(n)
	check64(n, "RandomSynchronousCrashRound")
	if fPrior+f >= n {
		panic(fmt.Sprintf("graph: crash budget %d+%d must stay below n=%d", fPrior, f, n))
	}
	perm := rng.Perm(n)
	var crashed uint64
	numPrior := rng.Intn(fPrior + 1)
	for _, i := range perm[:numPrior] {
		crashed |= 1 << uint(i)
	}
	crashing := make(map[int]uint64)
	numNow := rng.Intn(f + 1)
	for _, i := range perm[numPrior : numPrior+numNow] {
		crashing[i] = uint64(rng.Intn(1 << uint(n)))
	}
	g, err := SynchronousCrashRound(n, crashed, crashing)
	if err != nil {
		panic(err) // inputs are constructed valid
	}
	return g
}

// SendOmissionRound returns the communication graph of one synchronous
// round with send-omission faults: each faulty agent i's message is lost
// toward the recipients in omit[i] (bitmask); self-loops are unaffected
// (an agent always has its own state). Correct agents' messages are
// received by everyone.
//
// With at most n-1 faulty agents the graphs are non-split: every pair of
// nodes hears every correct agent.
func SendOmissionRound(n int, omit map[int]uint64) (Graph, error) {
	checkN(n)
	if n > wordBits {
		return Graph{}, fmt.Errorf("graph: SendOmissionRound supports n <= 64, got %d", n)
	}
	all := fullMask(n)
	for i, o := range omit {
		if i < 0 || i >= n {
			return Graph{}, fmt.Errorf("graph: faulty agent %d out of range", i)
		}
		if o&^all != 0 {
			return Graph{}, fmt.Errorf("graph: omission set of %d references nodes >= %d", i, n)
		}
	}
	b := NewBuilder(n)
	for j := 0; j < n; j++ {
		mask := all
		for i, o := range omit {
			if i != j && o&(1<<uint(j)) != 0 {
				mask &^= 1 << uint(i)
			}
		}
		b.SetInRow(j, []uint64{mask})
	}
	return b.Graph(), nil
}

// RandomSendOmissionRound samples a round graph with up to f agents
// suffering random send omissions.
func RandomSendOmissionRound(rng *rand.Rand, n, f int) Graph {
	checkN(n)
	check64(n, "RandomSendOmissionRound")
	if f < 0 || f >= n {
		panic(fmt.Sprintf("graph: omission budget %d must stay below n=%d", f, n))
	}
	omit := make(map[int]uint64)
	perm := rng.Perm(n)
	num := rng.Intn(f + 1)
	for _, i := range perm[:num] {
		omit[i] = uint64(rng.Intn(1 << uint(n)))
	}
	g, err := SendOmissionRound(n, omit)
	if err != nil {
		panic(err)
	}
	return g
}

// CorrectCount returns the number of agents that are heard by everyone
// (a lower bound on the number of correct agents in a failure-model round
// graph).
func (g Graph) CorrectCount() int {
	count := 0
	for i := 0; i < g.n; i++ {
		wi, bit := i/wordBits, uint64(1)<<uint(i%wordBits)
		heardByAll := true
		for j := 0; j < g.n; j++ {
			if g.in[j*g.Words()+wi]&bit == 0 {
				heardByAll = false
				break
			}
		}
		if heardByAll {
			count++
		}
	}
	return count
}

// minorityCrashQuorumGraph is documented in RandomAsyncMinorityCrashRound.
func minorityCrashQuorumGraph(rng *rand.Rand, n, f int, crashed uint64) Graph {
	b := NewBuilder(n)
	alive := fullMask(n) &^ crashed
	aliveNodes := SetToNodes([]uint64{alive})
	for j := 0; j < n; j++ {
		// Each agent hears itself plus the first n-f round messages to
		// arrive; crashed agents' messages may or may not be among them.
		// Sample a quorum of size n-f containing j from alive ∪ (a random
		// subset of crashed senders' last messages).
		candidates := append([]int(nil), aliveNodes...)
		crashedNodes := SetToNodes([]uint64{crashed})
		rng.Shuffle(len(crashedNodes), func(a, b int) {
			crashedNodes[a], crashedNodes[b] = crashedNodes[b], crashedNodes[a]
		})
		candidates = append(candidates, crashedNodes...)
		mask := uint64(1) << uint(j)
		for _, i := range candidates {
			if bits.OnesCount64(mask) >= n-f {
				break
			}
			mask |= 1 << uint(i)
		}
		b.SetInRow(j, []uint64{mask})
	}
	return b.Graph()
}

// RandomAsyncMinorityCrashRound samples the effective communication graph
// of one asynchronous round with f < n/2 crashes: each agent proceeds on
// its own message plus the first n-f-1 others to arrive, where up to f
// agents (the crashed minority) may be missing from everyone's quorums.
// Because quorums have size n-f > n/2, any two intersect: the graphs are
// non-split — the asynchronous-minority case of the paper's property (i).
func RandomAsyncMinorityCrashRound(rng *rand.Rand, n, f int) Graph {
	checkN(n)
	check64(n, "RandomAsyncMinorityCrashRound")
	if f < 0 || 2*f >= n {
		panic(fmt.Sprintf("graph: RandomAsyncMinorityCrashRound requires 0 <= f < n/2, got f=%d n=%d", f, n))
	}
	var crashed uint64
	perm := rng.Perm(n)
	num := rng.Intn(f + 1)
	for _, i := range perm[:num] {
		crashed |= 1 << uint(i)
	}
	return minorityCrashQuorumGraph(rng, n, f, crashed)
}
