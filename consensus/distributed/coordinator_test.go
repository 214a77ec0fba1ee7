package distributed

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/consensus"
	"repro/consensus/scenario"
)

// probeCoordinator returns a coordinator with one worker, both resolving
// against a library whose "probe:K" scenarios (partitionheal:4,2,K) call
// hook at the start of every resolution. The library caches each
// resolution, so a spec's first resolution, the coordinator's, is the
// only one that calls hook.
func probeCoordinator(t *testing.T, hook func()) *Coordinator {
	t.Helper()
	reg := consensus.NewScenarioRegistry()
	err := reg.Register(consensus.ScenarioFactory{
		Name: "probe", Usage: "probe:K", Summary: "partitionheal:4,2,K, observed",
		New: func(arg string, env consensus.ScenarioEnv) (*scenario.Schedule, error) {
			hook()
			k, err := strconv.Atoi(arg)
			if err != nil {
				return nil, err
			}
			return scenario.PartitionHeal(4, 2, k)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lib := &consensus.Library{Scenarios: reg}
	ws := httptest.NewServer(NewWorker(WorkerLibrary(lib), WorkerTimeout(time.Minute)))
	t.Cleanup(ws.Close)
	c := NewCoordinator(CoordinatorLibrary(lib), CoordinatorWorkers(ws.URL), CoordinatorHealthInterval(0))
	t.Cleanup(c.Close)
	return c
}

// probeSpecs returns n specs with distinct probe schedules.
func probeSpecs(n int) []consensus.RunSpec {
	specs := make([]consensus.RunSpec, n)
	for i := range specs {
		specs[i] = consensus.RunSpec{Scenario: "probe:" + strconv.Itoa(i+1), Algorithm: "midpoint", Rounds: 4}
	}
	return specs
}

// TestSweepPassStopsAtCancelledContext cancels the request's context in
// the first resolution. Each pass goroutine then resolves at most the
// spec it already holds (the hook cancels before it returns), and the
// sweep ends before admission: no shard dispatched, nothing stored.
func TestSweepPassStopsAtCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var resolved atomic.Int64
	c := probeCoordinator(t, func() {
		cancel()
		resolved.Add(1)
	})
	_, err := c.runSweep(ctx, SweepRequest{Specs: probeSpecs(64)}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runSweep error = %v, want context.Canceled", err)
	}
	if got, limit := resolved.Load(), int64(runtime.GOMAXPROCS(0)); got > limit {
		t.Errorf("%d specs resolved in a pass cancelled by its first resolution, want at most GOMAXPROCS = %d", got, limit)
	}
	st := c.Status()
	if st.ShardsDispatched != 0 || st.Sweeps != 0 {
		t.Errorf("cancelled sweep dispatched %d shards over %d admitted sweeps, want none", st.ShardsDispatched, st.Sweeps)
	}
	if st.Store.Hits+st.Store.Misses != 0 || st.Store.Entries != 0 {
		t.Errorf("cancelled sweep reached the store: %+v", st.Store)
	}
}

// TestSweepPassResolvesConcurrently holds the first resolution until a
// second one starts, so it passes only when the coordinator resolves a
// sweep's specs on more than one goroutine.
func TestSweepPassResolvesConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	var calls atomic.Int64
	var overlapped atomic.Bool
	second := make(chan struct{})
	c := probeCoordinator(t, func() {
		switch calls.Add(1) {
		case 1:
			select {
			case <-second:
				overlapped.Store(true)
			case <-time.After(2 * time.Second):
			}
		case 2:
			close(second)
		}
	})
	specs := probeSpecs(4)
	resp, err := c.runSweep(context.Background(), SweepRequest{Specs: specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Errors != 0 || resp.Stats.Computed != len(specs) {
		t.Errorf("stats = %+v, want %d computed specs and no errors", resp.Stats, len(specs))
	}
	if !overlapped.Load() {
		t.Error("no second resolution started while the first was in flight")
	}
}

// TestShardResponseReadIsBounded: a worker answers a 2-spec shard with a
// 64 MiB error string, streamed in small writes. The coordinator reads
// no further than the shard's bound: every spec gets an error naming the
// bound, nothing is stored, and the sweep allocates far less than the
// string's size.
func TestShardResponseReadIsBounded(t *testing.T) {
	chunk := bytes.Repeat([]byte("x"), 4<<10)
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/shard" {
			return // health probe: 200
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"results":[{"error":"`)
		for sent := 0; sent < 64<<20; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return // the coordinator hung up
			}
		}
		_, _ = io.WriteString(w, `"},{"error":"y"}]}`)
	}))
	defer ws.Close()
	c := NewCoordinator(CoordinatorWorkers(ws.URL), CoordinatorHealthInterval(0),
		CoordinatorRetry(2, time.Millisecond))
	defer c.Close()
	specs := []consensus.RunSpec{
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 8},
		{Model: "psi:5", Algorithm: "mean", Adversary: "cycle", Rounds: 6},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := c.runSweep(context.Background(), SweepRequest{Specs: specs}, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("sweep failed as a whole: %v", err)
	}
	for j, r := range resp.Results {
		if r.Summary != nil || !strings.Contains(r.Err, "-byte bound") {
			t.Errorf("result %d: summary %v, error %.80q, want an error naming the bound", j, r.Summary != nil, r.Err)
		}
	}
	if n := c.store.Counters().Entries; n != 0 {
		t.Errorf("the store holds %d entries, want 0", n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 32<<20 {
		t.Errorf("the sweep allocated %d MiB", alloc>>20)
	}
}
