package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"repro/consensus"
	"repro/consensus/distributed"
	"repro/internal/valency"
)

// TestTamperedResultIsCounted shows that each check counts a request as
// failed: every way of tampering with a correct response, and a transport
// error, fails exactly that request.
func TestTamperedResultIsCounted(t *testing.T) {
	r := newStream(findWorkload("lower-bound"), 1).next(0)
	results, err := consensus.Sweep(context.Background(), r.specs,
		consensus.SweepLibrary(newLibrary(nil, 0)), consensus.WithSweepCache(consensus.NewSweepCache()))
	if err != nil {
		t.Fatal(err)
	}
	type sweepResults = []consensus.SweepResult
	cases := []struct {
		name   string
		tamper func(rs sweepResults) sweepResults
		failed int
	}{
		{"untouched", func(rs sweepResults) sweepResults { return rs }, 0},
		{"fingerprint", func(rs sweepResults) sweepResults { rs[0].Fingerprint = strings.Repeat("f", 64); return rs }, 1},
		{"spec error", func(rs sweepResults) sweepResults { rs[1].Err = "tampered"; return rs }, 1},
		{"validity", func(rs sweepResults) sweepResults { rs[2].Summary.Validity = false; return rs }, 1},
		{"rate below the proven bound", func(rs sweepResults) sweepResults { rs[3].Summary.GeometricRate = 0.5; return rs }, 1},
		{"round count", func(rs sweepResults) sweepResults { rs[0].Summary.Rounds--; return rs }, 1},
		{"missing result", func(rs sweepResults) sweepResults { return rs[:len(rs)-1] }, 1},
	}
	chk := newChecker()
	for _, tc := range cases {
		copied := append(sweepResults(nil), results...)
		for i := range copied {
			s := *copied[i].Summary
			copied[i].Summary = &s
		}
		body, err := json.Marshal(distributed.SweepResponse{Results: tc.tamper(copied)})
		if err != nil {
			t.Fatal(err)
		}
		p := &pass{reqs: []*request{r}, samples: []sample{{body: body}}}
		if got := countTrue(chk.failures(p)); got != tc.failed {
			t.Errorf("%s: %d failed requests, want %d", tc.name, got, tc.failed)
		}
	}
	p := &pass{reqs: []*request{r}, samples: []sample{{err: errors.New("connection reset")}}}
	if got := countTrue(chk.failures(p)); got != 1 {
		t.Errorf("transport error: %d failed requests, want 1", got)
	}
}

// TestSameSummaryIsBitwise pins the ladder's parity check to bit
// identity: one ulp anywhere is a mismatch.
func TestSameSummaryIsBitwise(t *testing.T) {
	a := consensus.RunSummary{Algorithm: "midpoint", Rounds: 3, InitialDiameter: 1, FinalDiameter: 0.125,
		GeometricRate: 0.5, WorstRoundRatio: 0.5, FinalOutputs: []float64{0.25, 0.25}, Validity: true}
	if !sameSummary(a, a) {
		t.Fatal("a summary differs from itself")
	}
	b := a
	b.FinalOutputs = []float64{0.25, math.Nextafter(0.25, 1)}
	c := a
	c.GeometricRate = math.Nextafter(0.5, 0)
	if sameSummary(a, b) || sameSummary(a, c) {
		t.Error("a one-ulp change went undetected")
	}
}

// TestStreamsAreSeeded checks that a seed fixes a workload's requests and
// that another seed changes them.
func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newStream(w, 7), newStream(w, 7), newStream(w, 8)
		for i := 0; i < 3; i++ {
			ra, rb, rc := a.next(i), b.next(i), c.next(i)
			if string(ra.body) != string(rb.body) {
				t.Errorf("%s: request %d differs under one seed", w.name, i)
			}
			if string(ra.body) == string(rc.body) {
				t.Errorf("%s: request %d is the same under two seeds", w.name, i)
			}
		}
	}
}

// TestRungsCutAsTheCoordinator checks that the lower rungs cut a request
// as the served path does: into as many shards as the coordinator
// dispatches to its one worker, and into as many batch tiles as that
// worker steps.
func TestRungsCutAsTheCoordinator(t *testing.T) {
	ctx := context.Background()
	r := newStream(findWorkload("grid-narrow"), 1).next(0)
	c, err := startCluster(newLibrary(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	before, err := scrape(ctx, c.client, c.lc.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	s0 := c.lc.Coordinator.Status()
	if _, err := c.sweep(ctx, r, 0); err != nil {
		t.Fatal(err)
	}
	s1 := c.lc.Coordinator.Status()
	after, err := scrape(ctx, c.client, c.lc.BaseURL)
	if err != nil {
		t.Fatal(err)
	}

	lib, engines := newLibrary(nil, 0), make(map[engineKey]*valency.Engine)
	shards, tiles := shardRanges(len(r.specs)), 0
	for _, rg := range shards {
		var preps []*prepared
		for _, spec := range r.specs[rg[0]:rg[1]] {
			p, err := prepare(lib, engines, spec)
			if err != nil {
				t.Fatal(err)
			}
			preps = append(preps, p)
		}
		units, _ := tileUnits(preps)
		for _, u := range units {
			if len(u) > 1 {
				tiles++
			}
		}
	}
	if got, want := len(shards), int(s1.ShardsDispatched-s0.ShardsDispatched); got != want {
		t.Errorf("%d shards, the coordinator dispatched %d", got, want)
	}
	if got, want := float64(tiles), after["repro_sweep_tiles_total"]-before["repro_sweep_tiles_total"]; got != want {
		t.Errorf("%g tiles, the worker stepped %g", got, want)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the reported metric names and
// units in step with BENCHMARK.json at the repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, want []entry, got map[string]metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for _, e := range want {
			if m, ok := got[e.Name]; !ok || m.Unit != e.Unit {
				t.Errorf("%s: %s in %s is reported as %+v", kind, e.Name, e.Unit, m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd(&pass{}, nil, nil, 0))
	l := &ladderRun{w: workloads[0], top: &pass{}, tr: newTracer()}
	same("per_layer", spec.PerLayer, l.metrics(l.selfTimes()))
}
