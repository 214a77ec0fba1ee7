package valency_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/valency"
)

// TestCancelledQueryStoresNothing runs every tree walk under a context
// that is already cancelled: each returns the context's error, and the
// engine's tables and counters stay as they were, on both paths.
func TestCancelledQueryStoresNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range engineCases() {
		for _, alg := range []core.Algorithm{tc.alg, core.AgentsOnly(tc.alg)} {
			eng := valency.NewEngine(tc.m, valency.DefaultParams(3, true))
			c := core.NewConfig(alg, tc.inputs)
			if _, err := eng.Inner(ctx, c); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: Inner returned %v under a cancelled context", tc.name, err)
			}
			if _, err := eng.Outer(ctx, c); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: Outer returned %v under a cancelled context", tc.name, err)
			}
			if succ, err := eng.SuccessorInners(ctx, c); succ != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: SuccessorInners returned (%v, %v) under a cancelled context", tc.name, succ, err)
			}
			if s := eng.Stats(); s != (valency.CacheStats{}) {
				t.Fatalf("%s: a cancelled query touched the tables; stats %+v", tc.name, s)
			}
		}
	}
}

// TestCancelAtEveryPollKeepsTablesSound cuts a query at each of its
// context polls in turn, each time on a fresh engine, then reruns it
// uncancelled on that engine: the answer must equal, bit for bit, what
// an engine that was never cut returns. A cut walk that stored a partial
// subtree interval at the cut's ancestors would surface here: the cases
// are ones whose intervals still grow in late subtrees (no self-rooted
// graph, so no node's own limits span its valency), and each fails when
// the early return after a cut is removed from walker.inner or
// walker.outer.
func TestCancelAtEveryPollKeepsTablesSound(t *testing.T) {
	c := func(alg core.Algorithm) *core.Config { return core.NewConfig(alg, []float64{0, 1, 0.25}) }
	for _, tc := range []struct {
		name  string
		alg   core.Algorithm
		query func(e *valency.Engine, ctx context.Context, c *core.Config) ([]valency.Interval, error)
	}{
		{"SuccessorInners/mean", algorithms.Mean{}, (*valency.Engine).SuccessorInners},
		{"Outer/midpoint", algorithms.Midpoint{}, func(e *valency.Engine, ctx context.Context, c *core.Config) ([]valency.Interval, error) {
			iv, err := e.Outer(ctx, c)
			return []valency.Interval{iv}, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := valency.DefaultParams(10, true)
			want := must(tc.query(valency.NewEngine(noSelfRootModel(), p), bg, c(tc.alg)))
			cuts := 0
			for n := 0; ; n++ {
				eng := valency.NewEngine(noSelfRootModel(), p)
				if _, err := tc.query(eng, cutAfter(n), c(tc.alg)); err == nil {
					break
				} else if !errors.Is(err, context.Canceled) {
					t.Fatalf("cut after %d polls: %v", n, err)
				}
				cuts++
				if got := must(tc.query(eng, bg, c(tc.alg))); !sameBitsAll(got, want) {
					t.Fatalf("rerun after a cut at poll %d: %v, uncut %v", n, got, want)
				}
			}
			if cuts < 3 {
				t.Fatalf("the walk polled only %d times; the test needs a longer walk", cuts)
			}
		})
	}
}

// cutAfter returns a context whose Err reports cancellation from its
// (n+1)-th call on, so a test can cut a walk at any of its polls; its
// Done channel is never closed, and the walk polls Err.
func cutAfter(n int) context.Context {
	return &countdown{Context: context.Background(), done: make(chan struct{}), left: n}
}

type countdown struct {
	context.Context
	done chan struct{}
	left int
}

func (c *countdown) Done() <-chan struct{} { return c.done }

func (c *countdown) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}
