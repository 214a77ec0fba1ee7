// Command ladderbench is the repository's end-to-end benchmark.
//
// For one workload it starts an in-process coordinator plus one worker
// (distributed.StartLocal) on loopback, sends the workload's seeded sweep
// requests from a single client for --seconds, checks every result, and
// prints the end-to-end metrics. With --trace 1 it instead replays the
// same seeded requests down the layer ladder — consensus.NewSession,
// core.BatchRunner stepping (or the adversary's decisions on the agent
// path), Session.Run, consensus.Sweep, consensus.Server over loopback,
// and the coordinator — one rung at a time, and prints per-layer metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Build and run it from the
// repository root with
//
//	bash ladderbench/run.sh --workload grid-narrow --seed 1 --seconds 10 --trace 0
//
// README.md in this directory defines every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runDeadline bounds everything a run sends, so that a stalled program
// still lets the benchmark exit inside its time limit.
const runDeadline = 170 * time.Second

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: grid-narrow, grid-wide or lower-bound")
	seed := flag.Int64("seed", 1, "seed of the workload's request stream")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 replays the requests down the layer ladder and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans under")
	flag.Parse()

	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace, *out)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Printf("ladderbench: go=%s gomaxprocs=%d nproc=%d workload=%s seed=%d trace=%d\n",
				runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *name, *seed, *trace)
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "ladderbench:", err)
	os.Exit(1)
}

func run(name string, seed int64, window time.Duration, trace int, out string) (*result, error) {
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "REPRO_") {
			k, _, _ := strings.Cut(kv, "=")
			return nil, fmt.Errorf("refusing to run with %s set: REPRO_* variables change the program under test", k)
		}
	}
	w := findWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if window <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	switch trace {
	case 0:
		return measure(ctx, w, seed, window)
	case 1:
		return ladder(ctx, w, seed, window, out)
	}
	return nil, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
}

// outcome turns per-request failure flags into a result line.
func outcome(failed []bool) (*result, error) {
	if len(failed) == 0 {
		return nil, fmt.Errorf("no request was sent in the window")
	}
	n := countTrue(failed)
	return &result{Correct: n == 0, Attempted: len(failed), Failed: n}, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// ratio is a/b, or 0 when b is 0, so that no metric reads NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latenciesMS returns every sample's latency in milliseconds.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.done-s.sent) / 1e6
	}
	return out
}

// meanServiceMS is the mean request latency in milliseconds.
func meanServiceMS(samples []sample) float64 {
	var sum time.Duration
	for _, s := range samples {
		sum += s.done - s.sent
	}
	return ratio(float64(sum)/1e6, float64(len(samples)))
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
