// Command paperbench regenerates the paper's tables and figures: it runs
// the registered experiments (one per Table 1 cell, per figure, and per
// decision-time theorem) and prints the paper-claimed bound next to the
// measured value.
//
// It is a thin shell over consensus.Experiments/RunExperiment — the same
// registry the reprod query server serves at /api/v1/experiments.
//
// Usage:
//
//	paperbench                  run every experiment
//	paperbench -list            list experiment IDs
//	paperbench -run ID          run experiments whose ID contains the string
//	paperbench -format csv      emit CSV instead of aligned tables
//	paperbench -bench           run the machine-readable throughput bench:
//	                            the batch-plane sweep vs goroutine-per-run,
//	                            on the oblivious deaf-model workload and on
//	                            a 64-scenario grid (per-run schedules in
//	                            one batch)
//	paperbench -bench -json F   additionally write the results as JSON to F
//	                            (committed as BENCH_PR10.json and uploaded
//	                            as a CI artifact); the distributed series
//	                            spins an in-process coordinator/worker
//	                            cluster at 1 and 2 workers
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/consensus"
	"repro/internal/graph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(out)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	runPat := fs.String("run", "", "only run experiments whose ID contains this substring")
	format := fs.String("format", "table", "output format: table | csv")
	quiet := fs.Bool("q", false, "suppress per-experiment timing lines")
	bench := fs.Bool("bench", false, "run the sweep-throughput benchmark instead of the experiments")
	jsonPath := fs.String("json", "", "with -bench: write results as JSON to this file")
	benchN := fs.Int("benchn", 5, "with -bench: samples per benchmark (median reported)")
	benchSpecs := fs.Int("benchspecs", 64, "with -bench: specs per sweep")
	benchRounds := fs.Int("benchrounds", 1000, "with -bench: rounds per run")
	largenRounds := fs.Int("benchlargenrounds", 200, "with -bench: rounds per large-n kernel sample (0 disables the large-n series)")
	largenN := fs.Int("benchlargenn", largeN, "with -bench: agents in the large-n kernel series (> 64 gives rows of several words; 64 runs the same kernel on one-word rows)")
	distRequests := fs.Int("benchdist", 24, "with -bench: requests in the distributed series (0 disables it)")
	batchPar := consensus.BatchParallelismFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}
	if err := batchPar.Install(); err != nil {
		return err
	}

	if *bench {
		return runBench(out, *jsonPath, *benchN, *benchSpecs, *benchRounds, *largenRounds, *largenN, *distRequests)
	}

	if *list {
		for _, e := range consensus.Experiments() {
			fmt.Fprintf(out, "%-24s %s (%s)\n", e.ID, e.Title, e.Paper)
		}
		return nil
	}

	matched := 0
	for _, e := range consensus.Experiments() {
		if *runPat != "" && !strings.Contains(e.ID, *runPat) {
			continue
		}
		matched++
		start := time.Now()
		table, err := consensus.RunExperiment(context.Background(), e.ID)
		if err != nil {
			return err
		}
		if *format == "csv" {
			fmt.Fprintf(out, "## %s\n%s\n", e.ID, table.CSV())
			continue
		}
		fmt.Fprint(out, table.Render())
		if !*quiet {
			fmt.Fprintf(out, "(%s)\n", time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintln(out)
	}
	if matched == 0 {
		return fmt.Errorf("no experiment matches %q; try -list", *runPat)
	}
	return nil
}

// benchReport is the machine-readable benchmark artifact (committed as
// BENCH_PR10.json and uploaded by CI): the batch-plane sweep against
// PR 3's goroutine-per-run sweep, on the shared-model workload and on
// two scenario grids with per-run schedules (long churn epochs, and
// every-round churn for maximal graph diversity), medians over the
// sampled repetitions, so the perf trajectory is tracked commit over
// commit.
type benchReport struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	// CPUs is the machine's logical CPU count, GOMAXPROCS the scheduler
	// parallelism the sweeps actually ran with — the two diverge under
	// container quotas, and throughput ratios are only comparable at
	// equal GOMAXPROCS.
	CPUs       int          `json:"cpus"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Specs      int          `json:"specs"`
	Rounds     int          `json:"rounds"`
	Samples    int          `json:"samples"`
	Benchmarks []benchEntry `json:"benchmarks"`
	// SweepSpeedup is sweep/single median over sweep/batch median — the
	// batch plane's throughput multiplier at equal worker count. The
	// …/single series are the goroutine-per-run sweep the batch plane
	// replaced (NewSession, full-trace Session.Run and Summarize per
	// spec on GOMAXPROCS goroutines), the reference these ratios and
	// their CI gates document; the ungated …/unbatched series are Sweep
	// with SweepBatchSize(1), every run alone on the trace-free path.
	SweepSpeedup float64 `json:"sweep_speedup_batch_vs_single"`
	// ScenarioSpeedup is the same ratio for the scenario grid, where
	// every run follows its own schedule (per-run graphs in one batch,
	// graph changing every 10 rounds).
	ScenarioSpeedup float64 `json:"scenario_speedup_batch_vs_single"`
	// ScenarioDiverseSpeedup is the ratio for the high-diversity
	// scenario grid: churn with single-round epochs, so every run plays
	// a new graph every round and the plan cache is pure churn — the
	// worst case for clustered stepping.
	ScenarioDiverseSpeedup float64 `json:"scenario_diverse_speedup_batch_vs_single"`
	// Parallel is the large-n kernel series: the raw batch kernel at
	// n=64 (the bitmask-adjacency ceiling), B=1024, stepped at every
	// worker count of the machine's series — the intra-step parallelism
	// trajectory alongside the batch-vs-single ratios above.
	Parallel *parallelReport `json:"parallel,omitempty"`
	// Distributed is the coordinator/worker series: a deterministic
	// synthetic request stream replayed through an in-process cluster at
	// 1 and 2 workers, cold then warm — request throughput, tail
	// latency, store hit rates, and the zero-recompute resubmission
	// check.
	Distributed *distReport `json:"distributed,omitempty"`
	// Obs is the observability-overhead pair: the churn StepEach kernel
	// workload with a live metrics registry bound vs detached. CI gates
	// obs.overhead at 1.02.
	Obs *obsReport `json:"obs,omitempty"`
	// ObsSmall is the same pair on grid-narrow's tile shape (n=16, two
	// runs, StepEachWithHulls), where rounds are cheapest and the
	// overhead largest. CI gates obs_small.overhead at 1.02.
	ObsSmall *obsReport `json:"obs_small,omitempty"`
}

// benchEntry is one measured configuration.
type benchEntry struct {
	Name       string  `json:"name"`
	MedianNs   int64   `json:"median_ns"`
	RunsPerSec float64 `json:"runs_per_sec"`
}

// runBench measures the acceptance workloads through three paths — the
// per-run reference, the batched sweep and the unbatched sweep — and
// reports medians: the shared-model workload (benchSpecs specs, n = 16,
// benchRounds rounds over deaf(K16) midpoint, inputs varied per spec)
// and two scenario grids (benchSpecs churn schedules, one per seed, so
// every batched run follows its own per-round graph sequence).
func runBench(out io.Writer, jsonPath string, samples, specCount, rounds, largenRounds, largenN, distRequests int) error {
	if samples < 1 || specCount < 1 || rounds < 0 || largenRounds < 0 || distRequests < 0 {
		return fmt.Errorf("bad bench parameters: n=%d specs=%d rounds=%d largen=%d dist=%d", samples, specCount, rounds, largenRounds, distRequests)
	}
	if largenN < 2 || largenN > graph.MaxNodes {
		return fmt.Errorf("bad bench parameters: largen agent count %d (want 2..%d)", largenN, graph.MaxNodes)
	}
	modelSpecs := make([]consensus.RunSpec, specCount)
	for i := range modelSpecs {
		inputs := consensus.SpreadInputs(16)
		inputs[2] = float64(i) / float64(specCount)
		modelSpecs[i] = consensus.RunSpec{
			Model: "deaf:16", Algorithm: "midpoint", Adversary: "cycle",
			Rounds: rounds, Inputs: inputs,
		}
	}
	scenarioSpecs := make([]consensus.RunSpec, specCount)
	epochs := max((rounds+9)/10, 1)
	for i := range scenarioSpecs {
		// Distinct seeds: every run plays its own churn schedule, so the
		// tile exercises the per-run-graphs batch path, not the shared-
		// graph fast path.
		scenarioSpecs[i] = consensus.RunSpec{
			Scenario:  fmt.Sprintf("churn:16,%d,10,%d,4", i+1, epochs),
			Algorithm: "midpoint", Rounds: rounds,
		}
	}
	diverseSpecs := make([]consensus.RunSpec, specCount)
	for i := range diverseSpecs {
		// Single-round epochs: every run changes graph every round, so
		// distinct graphs across the batch dwarf the plan-cache cap and
		// clustered stepping runs at maximal graph diversity.
		diverseSpecs[i] = consensus.RunSpec{
			Scenario:  fmt.Sprintf("churn:16,%d,1,%d,4", 1000+i, max(rounds, 1)),
			Algorithm: "midpoint", Rounds: rounds,
		}
	}
	// perRunOnce is the reference the batch-plane speedups are measured
	// against: the goroutine-per-run sweep the batch plane replaced, one
	// NewSession, full-trace Session.Run and Summarize per spec on
	// GOMAXPROCS goroutines.
	perRunOnce := func(specs []consensus.RunSpec) (time.Duration, error) {
		start := time.Now()
		errs := make([]error, len(specs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
					s, err := consensus.NewSession(specs[i])
					if err != nil {
						errs[i] = err
						continue
					}
					res, err := s.Run(context.Background())
					if err != nil {
						errs[i] = err
						continue
					}
					_ = consensus.Summarize(res)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	sweepOnce := func(specs []consensus.RunSpec, opts ...consensus.SweepOption) (time.Duration, error) {
		all := append([]consensus.SweepOption{
			consensus.WithSweepCache(consensus.NewSweepCache()),
		}, opts...)
		start := time.Now()
		results, err := consensus.Sweep(context.Background(), specs, all...)
		if err != nil {
			return 0, err
		}
		for _, r := range results {
			if r.Err != "" {
				return 0, fmt.Errorf("spec %d: %s", r.Index, r.Err)
			}
		}
		return time.Since(start), nil
	}
	median := func(durations []time.Duration) int64 {
		sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
		return durations[len(durations)/2].Nanoseconds()
	}
	// The three paths' samples alternate within one workload, so slow
	// drift in machine load lands on every side of each speedup ratio
	// instead of skewing whichever path happened to run later.
	measure := func(specs []consensus.RunSpec) (single, batch, unbatched int64, err error) {
		var ss, bs, us []time.Duration
		for s := 0; s < samples; s++ {
			d, err := perRunOnce(specs)
			if err != nil {
				return 0, 0, 0, err
			}
			ss = append(ss, d)
			if d, err = sweepOnce(specs); err != nil {
				return 0, 0, 0, err
			}
			bs = append(bs, d)
			if d, err = sweepOnce(specs, consensus.SweepBatchSize(1)); err != nil {
				return 0, 0, 0, err
			}
			us = append(us, d)
		}
		return median(ss), median(bs), median(us), nil
	}

	singleNs, batchNs, unbatchedNs, err := measure(modelSpecs)
	if err != nil {
		return err
	}
	scenarioSingleNs, scenarioBatchNs, scenarioUnbatchedNs, err := measure(scenarioSpecs)
	if err != nil {
		return err
	}
	diverseSingleNs, diverseBatchNs, diverseUnbatchedNs, err := measure(diverseSpecs)
	if err != nil {
		return err
	}
	perSec := func(ns int64) float64 {
		if ns <= 0 {
			return 0
		}
		return float64(specCount) / (float64(ns) / 1e9)
	}
	report := benchReport{
		Schema:      "repro-bench/v4",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Specs:       specCount,
		Rounds:      rounds,
		Samples:     samples,
		Benchmarks: []benchEntry{
			{Name: "sweep/single", MedianNs: singleNs, RunsPerSec: perSec(singleNs)},
			{Name: "sweep/batch", MedianNs: batchNs, RunsPerSec: perSec(batchNs)},
			{Name: "sweep/unbatched", MedianNs: unbatchedNs, RunsPerSec: perSec(unbatchedNs)},
			{Name: "scenario-sweep/single", MedianNs: scenarioSingleNs, RunsPerSec: perSec(scenarioSingleNs)},
			{Name: "scenario-sweep/batch", MedianNs: scenarioBatchNs, RunsPerSec: perSec(scenarioBatchNs)},
			{Name: "scenario-sweep/unbatched", MedianNs: scenarioUnbatchedNs, RunsPerSec: perSec(scenarioUnbatchedNs)},
			{Name: "scenario-diverse/single", MedianNs: diverseSingleNs, RunsPerSec: perSec(diverseSingleNs)},
			{Name: "scenario-diverse/batch", MedianNs: diverseBatchNs, RunsPerSec: perSec(diverseBatchNs)},
			{Name: "scenario-diverse/unbatched", MedianNs: diverseUnbatchedNs, RunsPerSec: perSec(diverseUnbatchedNs)},
		},
	}
	if batchNs > 0 {
		report.SweepSpeedup = float64(singleNs) / float64(batchNs)
	}
	if scenarioBatchNs > 0 {
		report.ScenarioSpeedup = float64(scenarioSingleNs) / float64(scenarioBatchNs)
	}
	if diverseBatchNs > 0 {
		report.ScenarioDiverseSpeedup = float64(diverseSingleNs) / float64(diverseBatchNs)
	}
	if largenRounds > 0 {
		par, err := benchLargeN(out, samples, largenRounds, largenN, runtime.GOMAXPROCS(0))
		if err != nil {
			return err
		}
		report.Parallel = par
	}
	if distRequests > 0 {
		dist, err := benchDistributed(out, distRequests, 6, 25)
		if err != nil {
			return err
		}
		report.Distributed = dist
	}
	if largenRounds > 0 {
		report.Obs = benchObs(out, samples, largenRounds)
		report.ObsSmall = benchObsSmall(out, samples, largenRounds)
	}
	for _, e := range report.Benchmarks {
		fmt.Fprintf(out, "%-27s %12d ns/sweep  %8.0f runs/s\n", e.Name, e.MedianNs, e.RunsPerSec)
	}
	fmt.Fprintf(out, "batch speedup %.2fx (model sweep), %.2fx (scenario sweep), %.2fx (diverse scenario sweep)\n",
		report.SweepSpeedup, report.ScenarioSpeedup, report.ScenarioDiverseSpeedup)
	if jsonPath == "" {
		return nil
	}
	body, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if err := os.WriteFile(jsonPath, body, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", jsonPath)
	return nil
}
