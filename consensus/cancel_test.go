package consensus

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/valency"
)

// TestValencySearchStopsAtDeadline runs a valency search of a second or
// more under a 50 ms deadline: a greedy session run or stream on
// nonsplit:3 at depth 6 (its first round takes about 1.5 s) and a depth-6
// valency query on the same model. Each must return
// context.DeadlineExceeded within a bound of its deadline, with its
// goroutines settled. Each entry gets a fresh library, so its engine
// starts cold. The walk polls its context every 256 node visits: on a
// 2-CPU host a cut session overran its deadline by 0.6 ms in the median
// and 1.5 ms at most, 10 ms at most under -race; the bound leaves room
// for a loaded host.
func TestValencySearchStopsAtDeadline(t *testing.T) {
	const deadline, bound = 50 * time.Millisecond, 500 * time.Millisecond
	greedy := func(lib *Library) (*Session, error) {
		return New(WithLibrary(lib), WithModel("nonsplit:3"), WithAdversary("greedy"), WithDepth(6), WithRounds(1))
	}
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, lib *Library) error
	}{
		{"Session.Run", func(ctx context.Context, lib *Library) error {
			s, err := greedy(lib)
			if err != nil {
				return err
			}
			_, err = s.Run(ctx)
			return err
		}},
		{"Session.Rounds", func(ctx context.Context, lib *Library) error {
			s, err := greedy(lib)
			if err != nil {
				return err
			}
			for _, err := range s.Rounds(ctx) {
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"ValencyBounds", func(ctx context.Context, lib *Library) error {
			_, err := ValencyBounds(ctx, ValencyRequest{Model: "nonsplit:3", Inputs: []float64{0, 1, 0.25}, Depth: 6}, QueryLibrary(lib))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lib := copyLibrary(t, nil)
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			err := tc.run(ctx, lib)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("returned %v after %v, want the deadline", err, elapsed)
			}
			if elapsed > deadline+bound {
				t.Fatalf("returned %v after its %v deadline", elapsed-deadline, deadline)
			}
			for settle := time.Now(); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Since(settle) > time.Second {
					t.Fatalf("%d goroutines still running, %d before", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}

// TestAdversariesGetTheRunContext pins that every run that builds a
// pattern source hands the adversary factory its context, which the
// valency-driven adversaries bound their searches with: Session.Run,
// Session.Rounds and DecisionSweep. A probe adversary records the
// context it was built under.
func TestAdversariesGetTheRunContext(t *testing.T) {
	lib := copyLibrary(t, nil)
	var got context.Context
	err := lib.Adversaries.Register(AdversaryFactory{
		Name: "probe", Usage: "probe", Summary: "records its run's context", NeedsModel: true,
		New: func(arg string, env AdversaryEnv) (core.PatternSource, error) {
			got = env.Context
			return core.Fixed{G: env.Model.Graph(0)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithLibrary(lib), WithModel("deaf:3"), WithAdversary("probe"), WithRounds(1))
	if err != nil {
		t.Fatal(err)
	}
	type key struct{}
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"Session.Run", func(ctx context.Context) error { _, err := s.Run(ctx); return err }},
		{"Session.Rounds", func(ctx context.Context) error {
			for _, err := range s.Rounds(ctx) {
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"DecisionSweep", func(ctx context.Context) error {
			_, err := DecisionSweep(ctx, DecisionRequest{Model: "deaf:3", Algorithm: "midpoint", Adversary: "probe",
				Contraction: 0.5, Eps: []float64{0.1}}, QueryLibrary(lib))
			return err
		}},
	} {
		ctx := context.WithValue(context.Background(), key{}, tc.name)
		got = nil
		if err := tc.run(ctx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got == nil || got.Value(key{}) != tc.name {
			t.Fatalf("%s built its adversary under %v, not its own context", tc.name, got)
		}
	}
}

// TestEnginePoolForgetsCollectedLibraries pins the pool's release: once
// a library is collected, its pooled engines leave the pool and the
// repro_valency_engines gauge, while a live library's engine is still
// reused. The test runs on an empty pool and restores the process's
// afterwards.
func TestEnginePoolForgetsCollectedLibraries(t *testing.T) {
	engineMu.Lock()
	saved := enginePool
	enginePool = map[engineKey]*valency.Engine{}
	engineMu.Unlock()
	t.Cleanup(func() {
		engineMu.Lock()
		enginePool = saved
		engineMu.Unlock()
	})
	pooled := func(models uint64) int {
		engineMu.Lock()
		defer engineMu.Unlock()
		n := 0
		for key := range enginePool {
			if key.models == models {
				n++
			}
		}
		return n
	}
	session := func(lib *Library) *Session {
		s, err := New(WithLibrary(lib), WithModel("deaf:3"), WithAdversary("greedy"), WithDepth(1), WithRounds(1))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	live := copyLibrary(t, nil)
	kept := session(live).engine
	dead := func() uint64 {
		lib := copyLibrary(t, nil)
		if _, err := session(lib).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return lib.Models.id
	}()
	if n := pooled(dead); n != 1 {
		t.Fatalf("the library's session pooled %d engines, want 1", n)
	}
	gauge := obs.Default().GaugeValue("repro_valency_engines")
	for start := time.Now(); pooled(dead) > 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("a collected library's engine stayed in the pool")
		}
		runtime.GC()
	}
	if obs.Default() != nil {
		if after := obs.Default().GaugeValue("repro_valency_engines"); after != gauge-1 {
			t.Fatalf("repro_valency_engines went from %v to %v, want one less", gauge, after)
		}
	}
	if session(live).engine != kept {
		t.Fatal("a live library's engine was not reused")
	}
}
