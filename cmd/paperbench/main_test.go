package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunBenchJSON runs the -bench mode on a scaled-down sweep and
// checks the JSON artifact is well-formed: both sweep paths measured,
// a finite speedup, and the run parameters echoed back.
func TestRunBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var sb strings.Builder
	args := []string{"-bench", "-benchn", "1", "-benchspecs", "8", "-benchrounds", "50",
		"-benchlargenrounds", "5", "-benchdist", "4", "-json", path}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "batch speedup") {
		t.Errorf("bench output missing speedup line:\n%s", sb.String())
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Schema     string `json:"schema"`
		Specs      int    `json:"specs"`
		Rounds     int    `json:"rounds"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Benchmarks []struct {
			Name       string  `json:"name"`
			MedianNs   int64   `json:"median_ns"`
			RunsPerSec float64 `json:"runs_per_sec"`
		} `json:"benchmarks"`
		SweepSpeedup           float64 `json:"sweep_speedup_batch_vs_single"`
		ScenarioSpeedup        float64 `json:"scenario_speedup_batch_vs_single"`
		ScenarioDiverseSpeedup float64 `json:"scenario_diverse_speedup_batch_vs_single"`
		Parallel               *struct {
			N      int `json:"n"`
			Batch  int `json:"batch"`
			Series []struct {
				Workload string `json:"workload"`
				Workers  int    `json:"workers"`
				MedianNs int64  `json:"median_ns"`
			} `json:"series"`
		} `json:"parallel"`
		Distributed *struct {
			Requests int `json:"requests"`
			Series   []struct {
				Workers        int     `json:"workers"`
				ReqPerSec      float64 `json:"req_per_sec"`
				LatencyP99MS   float64 `json:"latency_p99_ms"`
				ResubmitRate   float64 `json:"resubmit_store_hit_rate"`
				ResubmitShards uint64  `json:"resubmit_shards_dispatched"`
			} `json:"series"`
		} `json:"distributed"`
		Obs      *obsReport `json:"obs"`
		ObsSmall *obsReport `json:"obs_small"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatalf("bad JSON artifact: %v\n%s", err, body)
	}
	if report.Schema != "repro-bench/v4" || report.Specs != 8 || report.Rounds != 50 {
		t.Errorf("artifact parameters wrong: %+v", report)
	}
	if report.GOMAXPROCS < 1 {
		t.Errorf("artifact missing gomaxprocs: %+v", report)
	}
	wantNames := []string{
		"sweep/single", "sweep/batch", "sweep/unbatched",
		"scenario-sweep/single", "scenario-sweep/batch", "scenario-sweep/unbatched",
		"scenario-diverse/single", "scenario-diverse/batch", "scenario-diverse/unbatched",
	}
	if len(report.Benchmarks) != len(wantNames) {
		t.Fatalf("artifact benchmarks wrong: %+v", report.Benchmarks)
	}
	for i, b := range report.Benchmarks {
		if b.Name != wantNames[i] {
			t.Errorf("benchmark %d is %q, want %q", i, b.Name, wantNames[i])
		}
		if b.MedianNs <= 0 || b.RunsPerSec <= 0 {
			t.Errorf("benchmark %s has non-positive measurements: %+v", b.Name, b)
		}
	}
	if report.SweepSpeedup <= 0 || report.ScenarioSpeedup <= 0 || report.ScenarioDiverseSpeedup <= 0 {
		t.Errorf("non-positive speedup %v / %v / %v",
			report.SweepSpeedup, report.ScenarioSpeedup, report.ScenarioDiverseSpeedup)
	}
	if report.Parallel == nil {
		t.Fatal("artifact missing the parallel large-n section")
	}
	if report.Parallel.N != 256 || report.Parallel.Batch != 1024 {
		t.Errorf("large-n section has n=%d B=%d, want 256/1024", report.Parallel.N, report.Parallel.Batch)
	}
	// One entry per workload per worker count, sequential always present.
	seen := map[string]bool{}
	for _, e := range report.Parallel.Series {
		if e.MedianNs <= 0 {
			t.Errorf("series entry %s w=%d has non-positive median", e.Workload, e.Workers)
		}
		if e.Workers == 1 {
			seen[e.Workload] = true
		}
	}
	for _, w := range []string{"largen-step/amortized", "largen-stepeach/churn"} {
		if !seen[w] {
			t.Errorf("series missing sequential entry for %s: %+v", w, report.Parallel.Series)
		}
	}
	for _, o := range []struct {
		name     string
		rep      *obsReport
		n, batch int
	}{{"obs", report.Obs, obsN, obsBatch}, {"obs_small", report.ObsSmall, obsSmallN, obsSmallBatch}} {
		if o.rep == nil {
			t.Fatalf("artifact missing the %s section", o.name)
		}
		if o.rep.N != o.n || o.rep.Batch != o.batch || o.rep.Overhead <= 0 {
			t.Errorf("%s section wrong: %+v", o.name, *o.rep)
		}
	}
	if report.Distributed == nil {
		t.Fatal("artifact missing the distributed section")
	}
	if report.Distributed.Requests != 4 || len(report.Distributed.Series) != 2 {
		t.Fatalf("distributed section wrong: %+v", report.Distributed)
	}
	for _, e := range report.Distributed.Series {
		if e.Workers < 1 || e.Workers > 2 || e.ReqPerSec <= 0 || e.LatencyP99MS <= 0 {
			t.Errorf("distributed entry malformed: %+v", e)
		}
		// Resubmitting the identical stream must recompute nothing.
		if e.ResubmitShards != 0 {
			t.Errorf("%d-worker resubmission dispatched %d shards, want 0", e.Workers, e.ResubmitShards)
		}
		if e.ResubmitRate < 0.95 {
			t.Errorf("%d-worker resubmission store hit rate %.2f, want >= 0.95", e.Workers, e.ResubmitRate)
		}
	}
}

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"T1/n2", "F2/psi", "THM8/decision-n2", "X/census"} {
		if !strings.Contains(sb.String(), id) {
			t.Errorf("-list output missing %s", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "X/census", "-q"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "{H0,H1,H2}") {
		t.Errorf("census output missing key row:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "T1/n2") {
		t.Error("-run filter leaked other experiments")
	}
}

func TestRunCSVFormat(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "X/census", "-format", "csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "## X/census") || !strings.Contains(sb.String(), "model,") {
		t.Errorf("CSV output malformed:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "nope-nothing"}, &sb); err == nil {
		t.Error("unmatched -run should error")
	}
	if err := run([]string{"-format", "xml"}, &sb); err == nil {
		t.Error("unknown format should error")
	}
	if err := run([]string{"-bogusflag"}, &sb); err == nil {
		t.Error("unknown flag should error")
	}
}
