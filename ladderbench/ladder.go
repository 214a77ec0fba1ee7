package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/consensus"
	"repro/consensus/distributed"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/valency"
)

// The rungs of the layer ladder, bottom to top. Every rung replays the
// same requests from a new library and new caches.
const (
	rungSession = 1 + iota // consensus.NewSession per spec
	rungCore               // core.BatchRunner tiles, or agent-path rounds and adversary decisions
	rungRun                // consensus.NewSession and Session.Run per spec
	rungSweep              // consensus.Sweep per request
	rungServer             // consensus.Server over loopback HTTP
	rungCoord              // coordinator plus one worker
)

var rungNames = [...]string{
	rungSession: "consensus.NewSession",
	rungCore:    "core",
	rungRun:     "Session.Run",
	rungSweep:   "consensus.Sweep",
	rungServer:  "consensus.Server",
	rungCoord:   "coordinator",
}

// validityTol is the hull tolerance consensus.Summarize checks validity
// with.
const validityTol = 1e-9

// runOut is one spec's outcome on one rung, kept for the parity check.
type runOut struct {
	fingerprint string // "" on rungs that report none
	summary     consensus.RunSummary
}

// ladderRun replays one top-rung pass's requests rung by rung.
type ladderRun struct {
	w       *workload
	seed    int64
	top     *pass
	tr      *tracer
	samples [rungCoord + 1][]sample
	outs    [rungCoord + 1][][]runOut // [rung][request][spec]

	// The core rung's own counters, summed over its goroutines.
	denseNs, denseRunRounds, tiles atomic.Int64
	stepNs, advNs, agentRounds     atomic.Int64

	responseBytes float64 // mean bytes of server-rung responses per request

	// What the program reported around the coordinator rung: the
	// movement of its /metrics series, Status() before and after, and the
	// deepest shard queue Status() showed while the rung ran.
	metricsDelta     map[string]float64
	status0, status1 distributed.CoordinatorStatus
	queueMax         int
}

// ladder is the traced run. It sends the workload's requests to the
// cluster, untraced, for a third of the window; replays exactly those
// requests, in order, through every rung; checks that the rungs agree;
// writes the spans; and reports per-layer metrics.
func ladder(ctx context.Context, w *workload, seed int64, window time.Duration, out string) (*result, error) {
	c, _, err := setUp(ctx, w, seed, 1)
	if err != nil {
		return nil, err
	}
	top := closedLoop(ctx, newStream(w, seed), window/3, c.sweep)
	c.close()
	chk := newChecker()
	failed := chk.failures(top)
	if len(failed) == 0 {
		return nil, fmt.Errorf("no request was sent in the window")
	}

	l := &ladderRun{w: w, seed: seed, top: top, tr: newTracer()}
	for k, rung := range []func(context.Context) error{
		l.sessionRung, l.coreRung, l.runRung, l.sweepRung, l.serverRung, l.coordRung,
	} {
		if err := rung(ctx); err != nil {
			return nil, fmt.Errorf("rung %s: %w", rungNames[k+1], err)
		}
	}
	coordFailed := chk.failures(&pass{reqs: top.reqs, samples: l.samples[rungCoord]})
	for i := range failed {
		err := l.parity(i)
		if err != nil {
			chk.report(i, err)
		}
		failed[i] = failed[i] || coordFailed[i] || err != nil
	}
	path := filepath.Join(out, "ladderbench-spans", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := l.tr.write(path); err != nil {
		return nil, err
	}
	res, err := outcome(failed)
	if err != nil {
		return nil, err
	}
	self := l.selfTimes()
	res.Metrics = l.metrics(self)
	l.print(os.Stderr, self)
	return res, nil
}

// Rungs 1 to 5 cut every request into the shards a coordinator with one
// worker dispatches (shardRanges) and handle the shards at once, as that
// worker does, so that the coordinator rung adds only fingerprinting,
// sharding, dispatch and merging.

// sessionRung builds every spec's session, on GOMAXPROCS goroutines per
// shard as the sweep's prepare phase does. Its library records every
// registry call.
func (l *ladderRun) sessionRung(ctx context.Context) error {
	lib := newLibrary(l.tr, rungSession)
	l.samples[rungSession] = replay(ctx, l.top, l.tr, rungSession, func(ctx context.Context, r *request, parent int64) ([]byte, error) {
		errs := make([]error, len(r.specs))
		eachShard(len(r.specs), func(lo, hi int) {
			parallel(runtime.GOMAXPROCS(0), hi-lo, func(j int) {
				defer l.tr.end(l.tr.begin(rungSession, "consensus.NewSession", parent))
				_, errs[lo+j] = consensus.NewSession(r.specs[lo+j], consensus.WithLibrary(lib))
			})
		})
		return nil, errors.Join(errs...)
	})
	return nil
}

// coreRung resolves every spec before the rung starts, then times the
// stepping alone.
func (l *ladderRun) coreRung(ctx context.Context) error {
	lib := newLibrary(nil, 0)
	engines := make(map[engineKey]*valency.Engine)
	preps := make([][]*prepared, len(l.top.reqs))
	for i, r := range l.top.reqs {
		for _, spec := range r.specs {
			p, err := prepare(lib, engines, spec)
			if err != nil {
				return err
			}
			preps[i] = append(preps[i], p)
		}
	}
	outs := make([][]runOut, len(preps))
	l.samples[rungCore] = replay(ctx, l.top, l.tr, rungCore, func(ctx context.Context, r *request, parent int64) ([]byte, error) {
		outs[r.id] = l.step(preps[r.id], parent)
		return nil, nil
	})
	l.outs[rungCore] = outs
	return nil
}

// runRung builds and runs one session per spec, on GOMAXPROCS goroutines
// per shard.
func (l *ladderRun) runRung(ctx context.Context) error {
	lib := newLibrary(nil, 0)
	outs := make([][]runOut, len(l.top.reqs))
	l.samples[rungRun] = replay(ctx, l.top, l.tr, rungRun, func(ctx context.Context, r *request, parent int64) ([]byte, error) {
		out := make([]runOut, len(r.specs))
		errs := make([]error, len(r.specs))
		eachShard(len(r.specs), func(lo, hi int) {
			parallel(runtime.GOMAXPROCS(0), hi-lo, func(j int) {
				j += lo
				id := l.tr.begin(rungRun, "consensus.NewSession", parent)
				s, err := consensus.NewSession(r.specs[j], consensus.WithLibrary(lib))
				l.tr.end(id)
				if err != nil {
					errs[j] = err
					return
				}
				id = l.tr.begin(rungRun, "consensus.Session.Run", parent)
				res, err := s.Run(ctx)
				l.tr.end(id)
				if err != nil {
					errs[j] = err
					return
				}
				out[j].summary = consensus.Summarize(res)
			})
		})
		outs[r.id] = out
		return nil, errors.Join(errs...)
	})
	l.outs[rungRun] = outs
	return nil
}

// sweepRung runs one consensus.Sweep per shard over one sweep cache, as
// the worker does.
func (l *ladderRun) sweepRung(ctx context.Context) error {
	lib, cache := newLibrary(nil, 0), consensus.NewSweepCache()
	outs := make([][]runOut, len(l.top.reqs))
	l.samples[rungSweep] = replay(ctx, l.top, l.tr, rungSweep, func(ctx context.Context, r *request, parent int64) ([]byte, error) {
		out := make([]runOut, len(r.specs))
		errs := make([]error, len(r.specs))
		eachShard(len(r.specs), func(lo, hi int) {
			id := l.tr.begin(rungSweep, "consensus.Sweep", parent)
			results, err := consensus.Sweep(ctx, r.specs[lo:hi], consensus.SweepLibrary(lib), consensus.WithSweepCache(cache))
			l.tr.end(id)
			var got []runOut
			if err == nil {
				got, err = fromResults(results)
			}
			copy(out[lo:hi], got)
			errs[lo] = err
		})
		outs[r.id] = out
		return nil, errors.Join(errs...)
	})
	l.outs[rungSweep] = outs
	return nil
}

// serverRung posts every shard of every request to a consensus.Server on
// loopback. A new server starts with an empty response cache. Shard
// bodies are encoded, and responses decoded, outside the rung's clock.
func (l *ladderRun) serverRung(ctx context.Context) error {
	srv := consensus.NewServer(consensus.ServerLibrary(newLibrary(nil, 0)),
		consensus.ServerSweepCache(consensus.NewSweepCache()))
	url, stop, err := serveLoopback(srv)
	if err != nil {
		return err
	}
	defer stop()
	cl := newClient()
	defer cl.CloseIdleConnections()
	bodies := make([][][]byte, len(l.top.reqs)) // [request][shard]
	for i, r := range l.top.reqs {
		for _, rg := range shardRanges(len(r.specs)) {
			b, err := json.Marshal(distributed.SweepRequest{Specs: r.specs[rg[0]:rg[1]]})
			if err != nil {
				return err
			}
			bodies[i] = append(bodies[i], b)
		}
	}
	resps := make([][][]byte, len(l.top.reqs))
	l.samples[rungServer] = replay(ctx, l.top, l.tr, rungServer, func(ctx context.Context, r *request, parent int64) ([]byte, error) {
		n := len(bodies[r.id])
		resps[r.id] = make([][]byte, n)
		errs := make([]error, n)
		parallel(n, n, func(k int) {
			defer l.tr.end(l.tr.begin(rungServer, "consensus.Server POST /api/v1/sweep", parent))
			resps[r.id][k], errs[k] = post(ctx, cl, url+"/api/v1/sweep", bodies[r.id][k])
		})
		return nil, errors.Join(errs...)
	})
	outs := make([][]runOut, len(l.top.reqs))
	var size float64
	for i := range resps {
		s := &l.samples[rungServer][i]
		for _, b := range resps[i] {
			size += float64(len(b))
			if s.err == nil {
				var got []runOut
				got, s.err = decodeResults(b)
				outs[i] = append(outs[i], got...)
			}
		}
	}
	l.responseBytes = ratio(size, float64(len(l.top.reqs)))
	l.outs[rungServer] = outs
	return nil
}

// coordRung posts every request to a new cluster, reading its /metrics
// and Status() before and after and polling its queue depth meanwhile.
func (l *ladderRun) coordRung(ctx context.Context) error {
	c, _, err := setUp(ctx, l.w, l.seed, 1)
	if err != nil {
		return err
	}
	defer c.close()
	before, err := scrape(ctx, c.client, c.lc.BaseURL)
	if err != nil {
		return err
	}
	l.status0 = c.lc.Coordinator.Status()
	stopPolling := pollQueueDepth(c.lc.Coordinator)
	l.samples[rungCoord] = replay(ctx, l.top, l.tr, rungCoord, func(ctx context.Context, r *request, parent int64) ([]byte, error) {
		defer l.tr.end(l.tr.begin(rungCoord, "distributed.Coordinator POST /api/v1/sweep", parent))
		return c.sweep(ctx, r, parent)
	})
	l.queueMax = stopPolling()
	l.status1 = c.lc.Coordinator.Status()
	after, err := scrape(ctx, c.client, c.lc.BaseURL)
	if err != nil {
		return err
	}
	l.metricsDelta = make(map[string]float64, len(after))
	for k, v := range after {
		l.metricsDelta[k] = v - before[k]
	}
	l.outs[rungCoord] = decodeOuts(l.samples[rungCoord])
	return nil
}

// prepared is one spec resolved for the core rung — what a session would
// hold — built through the public registries before the rung's clock
// starts, so that the rung times stepping alone.
type prepared struct {
	n, rounds int
	alg       core.Algorithm
	dense     core.DenseAlgorithm // nil: the spec runs on the agent path
	src       core.PatternSource
	inputs    []float64
	tile      string // consensus.Sweep's tile key
	schedule  string // the sweep's schedule identity, which orders a tile
}

// engineKey names the valency engine a spec's adversary explores with;
// the rung shares engines as the consensus engine pool does.
type engineKey struct {
	model, alg string
	depth      int
}

func prepare(lib *consensus.Library, engines map[engineKey]*valency.Engine, spec consensus.RunSpec) (*prepared, error) {
	p := &prepared{rounds: cmp.Or(spec.Rounds, consensus.DefaultRounds)}
	var m *model.Model
	switch {
	case spec.Scenario != "":
		sch, err := lib.Scenarios.New(spec.Scenario, consensus.ScenarioEnv{Models: lib.Models, Scenarios: lib.Scenarios})
		if err != nil {
			return nil, err
		}
		p.n, p.src, p.schedule = sch.N(), sch.Source(), "scenario:"+sch.Fingerprint()
	case spec.Model != "":
		var err error
		if m, err = lib.Models.New(spec.Model); err != nil {
			return nil, err
		}
		p.n = m.N()
	default:
		return nil, fmt.Errorf("spec names neither a model nor a scenario")
	}
	p.inputs = spec.Inputs
	if p.inputs == nil {
		p.inputs = consensus.SpreadInputs(p.n)
	}
	alg, err := consensus.Algorithms.New(cmp.Or(spec.Algorithm, "midpoint"), p.n)
	if err != nil {
		return nil, err
	}
	p.alg = alg
	if p.src == nil {
		adv := cmp.Or(spec.Adversary, "cycle")
		depth := cmp.Or(spec.Depth, consensus.DefaultDepth)
		key := engineKey{model: spec.Model, alg: alg.Name(), depth: depth}
		if engines[key] == nil {
			engines[key] = valency.NewEngine(m, valency.DefaultParams(depth, alg.Convex()))
		}
		p.src, err = consensus.Adversaries.New(adv, consensus.AdversaryEnv{
			Model: m, Algorithm: alg, N: p.n, Seed: cmp.Or(spec.Seed, consensus.DefaultSeed),
			Depth: depth, Engine: engines[key],
		})
		if err != nil {
			return nil, err
		}
		p.schedule = adv
	}
	if d, ok := core.AsDense(alg); ok && core.IsOblivious(p.src) {
		p.dense = d
		p.tile = fmt.Sprintf("%s|%s|%d|%d", spec.Model, spec.Algorithm, p.n, p.rounds)
	}
	return p, nil
}

// step executes one request's prepared specs as the worker's sweeps
// would, shard by shard: batchable specs in tiles cut as consensus.Sweep
// cuts them, stepped through core.BatchRunner, except that a one-run tile
// steps through core.DenseRunner as the sweep's single path does;
// adaptive specs one run each on the agent path; each shard's units on
// the sweep's execution workers.
func (l *ladderRun) step(preps []*prepared, parent int64) []runOut {
	out := make([]runOut, len(preps))
	eachShard(len(preps), func(lo, hi int) {
		shard, sout := preps[lo:hi], out[lo:hi]
		units, exec := tileUnits(shard)
		parallel(exec, len(units), func(u int) {
			switch idx := units[u]; {
			case shard[idx[0]].dense == nil:
				sout[idx[0]].summary = l.agentRun(shard[idx[0]], parent)
			case len(idx) == 1:
				sout[idx[0]].summary = l.denseRun(shard[idx[0]], parent)
			default:
				l.tileRun(shard, idx, sout, parent)
			}
		})
	})
	return out
}

// tileUnits groups one sweep's batchable specs by consensus.Sweep's tile
// key, orders each group by schedule, and cuts it as Sweep does: at least
// one tile per execution worker, at most DefaultSweepBatch runs per tile.
// Agent-path specs are units of their own. It returns the units and the
// number of execution workers the sweep runs them on.
func tileUnits(preps []*prepared) ([][]int, int) {
	exec := min(runtime.GOMAXPROCS(0), len(preps))
	if intra := core.DefaultBatchParallelism(); intra > 1 {
		exec = max(exec/intra, 1)
	}
	var units [][]int
	groups := make(map[string][]int)
	var keys []string
	for i, p := range preps {
		if p.dense == nil {
			units = append(units, []int{i})
			continue
		}
		if _, ok := groups[p.tile]; !ok {
			keys = append(keys, p.tile)
		}
		groups[p.tile] = append(groups[p.tile], i)
	}
	for _, key := range keys {
		g := groups[key]
		sort.SliceStable(g, func(a, b int) bool { return preps[g[a]].schedule < preps[g[b]].schedule })
		size := min(max((len(g)+exec-1)/exec, 1), consensus.DefaultSweepBatch)
		for len(g) > 0 {
			n := min(size, len(g))
			units = append(units, g[:n])
			g = g[n:]
		}
	}
	return units, exec
}

// planCacheCap sizes a tile's step-plan cache as consensus.Sweep does: a
// ~4 MiB budget at ~40n+300 bytes per plan, never below the default.
func planCacheCap(n int) int {
	return max((4<<20)/(40*n+300), core.DefaultPlanCacheCap)
}

// tileRun steps one tile through a core.BatchRunner as the sweep's batch
// plane does, summarizing each run from its hull series.
func (l *ladderRun) tileRun(preps []*prepared, idx []int, out []runOut, parent int64) {
	defer l.tr.end(l.tr.begin(rungCore, "core.BatchRunner", parent))
	start := time.Now()
	p0 := preps[idx[0]]
	b, rounds := len(idx), p0.rounds
	inputs := make([][]float64, b)
	for k, i := range idx {
		inputs[k] = preps[i].inputs
	}
	br := core.NewBatchRunner(p0.dense, inputs)
	br.SetParallelism(core.DefaultBatchParallelism())
	br.SetPlanCacheCap(planCacheCap(p0.n))
	diams := make([][]float64, b)
	lo0, hi0 := make([]float64, b), make([]float64, b)
	los, his := make([]float64, b), make([]float64, b)
	valid := make([]bool, b)
	for k := range idx {
		lo0[k], hi0[k] = br.Hull(k)
		diams[k] = append(make([]float64, 0, rounds+1), hi0[k]-lo0[k])
		valid[k] = true
	}
	gs := make([]graph.Graph, b)
	for round := 1; round <= rounds; round++ {
		for k, i := range idx {
			gs[k] = preps[i].src.Next(round, nil)
		}
		br.StepEachWithHulls(gs, los, his)
		for k := range idx {
			diams[k] = append(diams[k], his[k]-los[k])
			if los[k] < lo0[k]-validityTol || his[k] > hi0[k]+validityTol {
				valid[k] = false
			}
		}
	}
	for k, i := range idx {
		final := make([]float64, p0.n)
		br.Outputs(k, final)
		out[i].summary = summarize(p0.alg.Name(), diams[k], final, valid[k])
	}
	l.denseNs.Add(int64(time.Since(start)))
	l.denseRunRounds.Add(int64(b * rounds))
	l.tiles.Add(1)
}

// denseRun steps a one-run tile through a core.DenseRunner, the sweep's
// single path.
func (l *ladderRun) denseRun(p *prepared, parent int64) consensus.RunSummary {
	defer l.tr.end(l.tr.begin(rungCore, "core.DenseRunner", parent))
	start := time.Now()
	r := core.NewDenseRunner(p.dense, p.inputs)
	lo0, hi0 := r.Hull()
	diams := append(make([]float64, 0, p.rounds+1), hi0-lo0)
	valid := true
	for t := 1; t <= p.rounds; t++ {
		r.Step(p.src.Next(t, nil))
		lo, hi := r.Hull()
		diams = append(diams, hi-lo)
		if lo < lo0-validityTol || hi > hi0+validityTol {
			valid = false
		}
	}
	l.denseNs.Add(int64(time.Since(start)))
	l.denseRunRounds.Add(int64(p.rounds))
	return summarize(p.alg.Name(), diams, r.Outputs(), valid)
}

// agentRun steps one adaptive run on the agent path, timing the pattern
// source's decision — the adversary and its valency search — apart from
// the round itself.
func (l *ladderRun) agentRun(p *prepared, parent int64) consensus.RunSummary {
	defer l.tr.end(l.tr.begin(rungCore, "core.Config run", parent))
	c := core.NewConfig(p.alg, p.inputs)
	lo0, hi0 := c.Hull()
	diams := append(make([]float64, 0, p.rounds+1), hi0-lo0)
	valid := true
	var adv, step time.Duration
	for t := 1; t <= p.rounds; t++ {
		decide := time.Now()
		g := p.src.Next(c.Round()+1, c)
		stepped := time.Now()
		c.StepInPlace(g)
		step += time.Since(stepped)
		adv += stepped.Sub(decide)
		lo, hi := c.Hull()
		diams = append(diams, hi-lo)
		if lo < lo0-validityTol || hi > hi0+validityTol {
			valid = false
		}
	}
	l.advNs.Add(int64(adv))
	l.stepNs.Add(int64(step))
	l.agentRounds.Add(int64(p.rounds))
	return summarize(p.alg.Name(), diams, c.Outputs(), valid)
}

// summarize condenses a diameter series as consensus.Summarize does.
func summarize(alg string, diams, final []float64, valid bool) consensus.RunSummary {
	t := len(diams) - 1
	return consensus.RunSummary{
		Algorithm:       alg,
		Rounds:          t,
		InitialDiameter: diams[0],
		FinalDiameter:   diams[t],
		GeometricRate:   consensus.GeometricRate(diams),
		WorstRoundRatio: consensus.WorstRoundRatio(diams),
		FinalOutputs:    final,
		Validity:        valid,
	}
}

// fromResults keeps each result's fingerprint and summary; a per-spec
// error fails the request.
func fromResults(results []consensus.SweepResult) ([]runOut, error) {
	out := make([]runOut, len(results))
	for j, r := range results {
		if r.Err != "" || r.Summary == nil {
			return nil, fmt.Errorf("spec %d: %q", j, r.Err)
		}
		out[j] = runOut{fingerprint: r.Fingerprint, summary: *r.Summary}
	}
	return out, nil
}

// decodeResults decodes one sweep response into its outcomes.
func decodeResults(body []byte) ([]runOut, error) {
	var resp distributed.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return fromResults(resp.Results)
}

// decodeOuts decodes the coordinator rung's responses; a response that
// does not decode, or that carries a per-spec error, becomes its
// request's error.
func decodeOuts(samples []sample) [][]runOut {
	outs := make([][]runOut, len(samples))
	for i := range samples {
		if s := &samples[i]; s.err == nil {
			outs[i], s.err = decodeResults(s.body)
		}
	}
	return outs
}

// parity fails request i when any rung failed it, or when the rungs that
// produce outcomes disagree: summaries must be bit-identical across the
// core, Session.Run, Sweep, Server and coordinator rungs, fingerprints
// equal wherever a rung reports one.
func (l *ladderRun) parity(i int) error {
	for k := rungSession; k <= rungCoord; k++ {
		if err := l.samples[k][i].err; err != nil {
			return fmt.Errorf("rung %s: %w", rungNames[k], err)
		}
	}
	ref := l.outs[rungCoord][i]
	for k := rungCore; k < rungCoord; k++ {
		got := l.outs[k][i]
		if len(got) != len(ref) {
			return fmt.Errorf("rung %s: %d outcomes, the coordinator %d", rungNames[k], len(got), len(ref))
		}
		for j := range ref {
			if !sameSummary(got[j].summary, ref[j].summary) {
				return fmt.Errorf("rung %s, spec %d: summary differs from the coordinator's", rungNames[k], j)
			}
			if got[j].fingerprint != "" && got[j].fingerprint != ref[j].fingerprint {
				return fmt.Errorf("rung %s, spec %d: fingerprint differs from the coordinator's", rungNames[k], j)
			}
		}
	}
	return nil
}

// sameSummary reports whether two summaries are bit-identical.
func sameSummary(a, b consensus.RunSummary) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Algorithm != b.Algorithm || a.Rounds != b.Rounds || a.Validity != b.Validity ||
		!same(a.InitialDiameter, b.InitialDiameter) || !same(a.FinalDiameter, b.FinalDiameter) ||
		!same(a.GeometricRate, b.GeometricRate) || !same(a.WorstRoundRatio, b.WorstRoundRatio) ||
		len(a.FinalOutputs) != len(b.FinalOutputs) {
		return false
	}
	for i := range a.FinalOutputs {
		if !same(a.FinalOutputs[i], b.FinalOutputs[i]) {
			return false
		}
	}
	return true
}

// selfTimes splits the rungs' mean time per request into the layers each
// adds: a layer's self time is its rung minus the rung below. Rung 1 is
// split between the model and scenario registries and the session by the
// share of its NewSession span time the registry spans cover; rung 2
// between the adversary (with its valency search) and core by their timed
// shares. When every spec steps on the batch plane — the core rung made
// no agent-path round — the rung below the sweep is rungs 1 and 2
// together, since a worker never calls Session.Run there; otherwise it is
// rung 3, and Session.Run's own cost joins the session layer.
func (l *ladderRun) selfTimes() map[string]float64 {
	w := func(k int) float64 { return meanServiceMS(l.samples[k]) }
	newNs, _ := l.tr.sum(rungSession, "consensus.NewSession")
	modelNs, _ := l.tr.sum(rungSession, "model.New")
	scenNs, _ := l.tr.sum(rungSession, "scenario.New")
	adv := float64(l.advNs.Load())
	coreNs := adv + float64(l.stepNs.Load()+l.denseNs.Load())
	s := map[string]float64{
		"model":     w(rungSession) * ratio(float64(modelNs), float64(newNs)),
		"scenario":  w(rungSession) * ratio(float64(scenNs), float64(newNs)),
		"adversary": w(rungCore) * ratio(adv, coreNs),
	}
	s["consensus.session"] = w(rungSession) - s["model"] - s["scenario"]
	s["core"] = w(rungCore) - s["adversary"]
	below := w(rungSession) + w(rungCore)
	if l.agentRounds.Load() > 0 {
		s["consensus.session"] += w(rungRun) - below
		below = w(rungRun)
	}
	s["consensus.sweep"] = w(rungSweep) - below
	s["consensus.server"] = w(rungServer) - w(rungSweep)
	s["distributed.coord"] = w(rungCoord) - w(rungServer)
	return s
}

// namedLead is the self time of the layers the workload exists for over
// the largest self time of any other layer: above 1 when they lead.
func (l *ladderRun) namedLead(self map[string]float64) float64 {
	named, other := 0.0, 0.0
	for layer, ms := range self {
		if slices.Contains(l.w.named, layer) {
			named += ms
		} else {
			other = max(other, ms)
		}
	}
	return ratio(named, other)
}

// metrics derives the per-layer metrics from the rungs' samples, the
// spans, the core rung's counters, and what the program itself reported
// around the coordinator rung.
func (l *ladderRun) metrics(self map[string]float64) map[string]metric {
	n := float64(len(l.top.reqs))
	spanMS := func(rung int, name string) float64 {
		ns, count := l.tr.sum(rung, name)
		return ratio(float64(ns)/1e6, float64(count))
	}
	d := l.metricsDelta
	planHits, planBuilds := d["repro_kernel_plan_cache_hits_total"], d["repro_kernel_plan_cache_misses_total"]
	valHits, valMisses := d["repro_valency_cache_hits"], d["repro_valency_cache_misses"]
	s0, s1 := l.status0, l.status1
	agentRounds := float64(l.agentRounds.Load())
	m := map[string]metric{
		"core.ns_per_run_round":                {ratio(float64(l.denseNs.Load()), float64(l.denseRunRounds.Load())), "ns"},
		"core.plan_hit_rate":                   {ratio(planHits, planHits+planBuilds), "ratio"},
		"core.plan_builds":                     {ratio(planBuilds, n), "count"},
		"core.agent_ms_per_round":              {ratio(float64(l.stepNs.Load())/1e6, agentRounds), "ms"},
		"adversary.ms_per_decision":            {ratio(float64(l.advNs.Load())/1e6, agentRounds), "ms"},
		"valency.hit_rate":                     {ratio(valHits, valHits+valMisses), "ratio"},
		"valency.entries":                      {d["repro_valency_cache_entries"], "count"},
		"model.ms_per_spec":                    {spanMS(rungSession, "model.New"), "ms"},
		"scenario.ms_per_spec":                 {spanMS(rungSession, "scenario.New"), "ms"},
		"consensus.session.new_ms_per_spec":    {spanMS(rungSession, "consensus.NewSession"), "ms"},
		"consensus.session.run_ms_per_spec":    {spanMS(rungRun, "consensus.Session.Run"), "ms"},
		"consensus.sweep.ms_per_request":       {meanServiceMS(l.samples[rungSweep]), "ms"},
		"consensus.sweep.tiles_per_request":    {ratio(d["repro_sweep_tiles_total"], n), "count"},
		"consensus.server.ms_per_request":      {meanServiceMS(l.samples[rungServer]), "ms"},
		"consensus.server.response_bytes":      {l.responseBytes, "bytes"},
		"distributed.coord.ms_per_request":     {meanServiceMS(l.samples[rungCoord]), "ms"},
		"distributed.coord.shards_per_request": {ratio(float64(s1.ShardsDispatched-s0.ShardsDispatched), n), "count"},
		"distributed.coord.retries":            {float64(s1.ShardRetries - s0.ShardRetries), "count"},
		"distributed.coord.rejected":           {float64(s1.Rejected - s0.Rejected), "count"},
		"distributed.coord.failures":           {float64(s1.ShardFailures - s0.ShardFailures), "count"},
		"distributed.coord.queue_depth_max":    {float64(l.queueMax), "count"},
		"trace.overhead": {ratio(median(latenciesMS(l.samples[rungCoord])),
			median(latenciesMS(l.top.samples))), "ratio"},
		"ladder.named_layer_lead": {l.namedLead(self), "ratio"},
	}
	for layer, ms := range self {
		m[layer+".self_ms_per_request"] = metric{ms, "ms"}
	}
	return m
}

// print writes the rung times, the tiles per request the core rung cut
// beside those the worker reported, and the layers' self times, largest
// first.
func (l *ladderRun) print(w io.Writer, self map[string]float64) {
	for k := rungSession; k <= rungCoord; k++ {
		fmt.Fprintf(w, "ladderbench: rung %d %-21s %10.3f ms/request\n", k, rungNames[k], meanServiceMS(l.samples[k]))
	}
	n := float64(len(l.top.reqs))
	fmt.Fprintf(w, "ladderbench: tiles/request: core rung %.2f, worker %.2f\n",
		ratio(float64(l.tiles.Load()), n), ratio(l.metricsDelta["repro_sweep_tiles_total"], n))
	layers := slices.SortedFunc(maps.Keys(self), func(a, b string) int { return cmp.Compare(self[b], self[a]) })
	for _, layer := range layers {
		fmt.Fprintf(w, "ladderbench: self %-22s %10.3f ms/request\n", layer, self[layer])
	}
}

// scrape reads the Prometheus text exposition at base/metrics into a map
// from series (labels included) to value.
func scrape(ctx context.Context, cl *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// pollQueueDepth samples the coordinator's shard queue depth every
// millisecond until the returned function is called, which stops the
// sampling and returns the deepest queue seen.
func pollQueueDepth(co *distributed.Coordinator) func() int {
	done := make(chan struct{})
	var wg sync.WaitGroup
	deepest := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				deepest = max(deepest, co.Status().QueueDepth)
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return deepest
	}
}

// serveLoopback serves h on a new loopback port until stop is called.
func serveLoopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}, nil
}
