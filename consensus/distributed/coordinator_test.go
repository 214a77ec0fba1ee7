package distributed

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"strconv"
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
