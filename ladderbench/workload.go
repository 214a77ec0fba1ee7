package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/consensus"
	"repro/consensus/distributed"
)

// Workload sizes, chosen on a 2-CPU machine so that on each workload the
// layer it exists for does most of the work (README.md).
const (
	gridSpecs    = 32   // specs per grid request: two coordinator shards of 16
	narrowRounds = 4000 // grid-narrow runs are long, so stepping outweighs resolution
	wideRounds   = 400  // grid-wide: 100 churning rounds, then the last graph held
	boundRounds  = 12   // the horizon of the lower-bound executions
)

// algorithms are the averaging algorithms grid specs draw from.
var algorithms = []string{"midpoint", "amortized", "mean"}

// workload is one traffic mix, sent in a closed loop by one client.
type workload struct {
	name string
	// named lists the layers that should show the largest self time.
	named []string
	// specs draws one request's specs from the stream.
	specs func(*stream) []consensus.RunSpec
}

var workloads = []*workload{
	{name: "grid-narrow", named: []string{"core"}, specs: gridNarrow},
	{name: "grid-wide", named: []string{"core"}, specs: gridWide},
	{name: "lower-bound", named: []string{"adversary"}, specs: lowerBound},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// request is one sweep request ready to send.
type request struct {
	id     int // position in its pass
	specs  []consensus.RunSpec
	body   []byte // {"specs": [...]}, the body of the coordinator's sweep endpoint
	rounds int    // Σ spec rounds
}

// stream is one seeded request sequence: equal seeds give equal requests.
type stream struct {
	w   *workload
	rng *rand.Rand
}

func newStream(w *workload, seed int64) *stream {
	return &stream{w: w, rng: rand.New(rand.NewSource(seed))}
}

// next draws the stream's next request and gives it the id.
func (s *stream) next(id int) *request {
	specs := s.w.specs(s)
	body, err := json.Marshal(distributed.SweepRequest{Specs: specs})
	if err != nil {
		panic(err) // specs of finite floats always encode
	}
	r := &request{id: id, specs: specs, body: body}
	for _, spec := range specs {
		r.rounds += spec.Rounds
	}
	return r
}

// rotation returns the algorithm of a grid request's i-th spec: the
// algorithms in turn from a random start. Every shard then holds the same
// number of specs per algorithm, so the sweep cuts the same tiles on
// every request and seed, and a seed moves the inputs, not the tiling.
func (s *stream) rotation() func(i int) string {
	start := s.rng.Intn(len(algorithms))
	return func(i int) string { return algorithms[(start+i)%len(algorithms)] }
}

// inputs draws fresh initial values, so that every fresh spec has a new
// fingerprint and no cache can serve it.
func (s *stream) inputs(n int) []float64 {
	in := make([]float64, n)
	for i := range in {
		in[i] = s.rng.Float64()
	}
	return in
}

// gridNarrow alternates deaf:16 model specs under cycle — one plan per
// round, shared by a tile — with churn:16 scenarios — per-run graphs
// through clustered StepEach — so that each 16-spec shard carries both.
func gridNarrow(s *stream) []consensus.RunSpec {
	specs := make([]consensus.RunSpec, gridSpecs)
	alg := s.rotation()
	for i := range specs {
		specs[i] = consensus.RunSpec{Algorithm: alg(i / 2), Inputs: s.inputs(16), Rounds: narrowRounds}
		if i%2 == 0 {
			specs[i].Model, specs[i].Adversary = "deaf:16", "cycle"
		} else {
			specs[i].Scenario = fmt.Sprintf("churn:16,%d,4,64,4", s.rng.Int63())
		}
	}
	return specs
}

// gridWide is churn:256 scenarios only: four-word masks and receiver-range
// shards. deaf:256 model specs stay out: resolving one costs tens of
// milliseconds in every process and would hide the kernel.
func gridWide(s *stream) []consensus.RunSpec {
	specs := make([]consensus.RunSpec, gridSpecs)
	alg := s.rotation()
	for i := range specs {
		specs[i] = consensus.RunSpec{
			Scenario:  fmt.Sprintf("churn:256,%d,4,25,64", s.rng.Int63()),
			Algorithm: alg(i),
			Inputs:    s.inputs(256),
			Rounds:    wideRounds,
		}
	}
	return specs
}

// lowerBound is one lower-bound execution per theorem: Theorem 1
// (twoagent, two-thirds) and Theorem 2 (deaf:3 and deaf:4, midpoint)
// under the greedy adversary, Theorem 3 (psi:5, midpoint) under the block
// adversary. Each model keeps one depth, so a library holds four valency
// engines and a run stays far below the process-wide pool of 64.
//
// Inputs are a fresh random affine image lo + scale·SpreadInputs(n) of
// the maximally spread configuration. Uniformly random inputs would not
// do: their initial valency diameter can fall short of their value
// diameter, and then a 12-round run may contract faster than the proven
// rate (about one psi:5 run in 750 does), although the adversary still
// meets the bound on the valency diameter.
func lowerBound(s *stream) []consensus.RunSpec {
	spec := func(model, alg, adv string, depth, n int) consensus.RunSpec {
		lo, scale := s.rng.Float64(), 0.5+s.rng.Float64()
		in := consensus.SpreadInputs(n)
		for i := range in {
			in[i] = lo + scale*in[i]
		}
		return consensus.RunSpec{Model: model, Algorithm: alg, Adversary: adv, Depth: depth,
			Rounds: boundRounds, Inputs: in}
	}
	return []consensus.RunSpec{
		spec("twoagent", "twothirds", "greedy", 4, 2),
		spec("deaf:3", "midpoint", "greedy", 4, 3),
		spec("deaf:4", "midpoint", "greedy", 3, 4),
		spec("psi:5", "midpoint", "blockgreedy", 3, 5),
	}
}
