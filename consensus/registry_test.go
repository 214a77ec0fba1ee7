package consensus

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/consensus/scenario"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

func TestModelRegistrySpecs(t *testing.T) {
	cases := []struct {
		in      string
		wantN   int
		wantLen int
	}{
		{"twoagent", 2, 3},
		{"deaf:4", 4, 4},
		{"psi:5", 5, 3},
		{"rooted:2", 2, 3},
		{"nonsplit:2", 2, 3},
		{"na:4,1", 4, 256},
		{"edges:3;0>1,1>2", 3, 1},
	}
	for _, tc := range cases {
		m, err := Models.New(tc.in)
		if err != nil {
			t.Errorf("Models.New(%q): %v", tc.in, err)
			continue
		}
		if m.N() != tc.wantN || m.Size() != tc.wantLen {
			t.Errorf("Models.New(%q) = n=%d size=%d, want n=%d size=%d",
				tc.in, m.N(), m.Size(), tc.wantN, tc.wantLen)
		}
	}
	m, err := Models.New("asyncchain:6,2")
	if err != nil {
		t.Fatalf("asyncchain: %v", err)
	}
	if m.N() != 6 || m.Size() < 4 {
		t.Errorf("asyncchain:6,2 = n=%d size=%d", m.N(), m.Size())
	}
	for _, bad := range []string{"", "wat", "deaf:x", "deaf:0", "psi:3", "na:4", "na:4,0",
		"edges:3;0-1", "edges:3;9>1", "edges:x;0>1", "rooted:9", "twoagent:arg"} {
		if _, err := Models.New(bad); err == nil {
			t.Errorf("Models.New(%q) succeeded, want error", bad)
		}
	}
}

func TestAlgorithmRegistrySpecs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		n    int
		name string
	}{
		{"midpoint", 3, "midpoint"},
		{"mean", 3, "mean"},
		{"amortized", 4, "amortized-midpoint"},
		{"twothirds", 2, "two-thirds"},
		{"selfweighted:0.25", 3, "self-weighted(0.25)"},
		{"quantized:0.125", 4, "quantized-midpoint(q=0.125)"},
		{"floodroot:1", 4, "flood-root(1)"},
		{"floodroot", 4, "flood-root(0)"},
		{"rb-midpoint", 4, "rb-midpoint"},
		{"rb-selectedmean:2", 6, "rb-selected-mean(f=2)"},
	} {
		alg, err := Algorithms.New(tc.in, tc.n)
		if err != nil {
			t.Errorf("Algorithms.New(%q): %v", tc.in, err)
			continue
		}
		if alg.Name() != tc.name {
			t.Errorf("Algorithms.New(%q).Name = %q, want %q", tc.in, alg.Name(), tc.name)
		}
	}
	for _, bad := range []struct {
		in string
		n  int
	}{
		{"nope", 3}, {"twothirds", 3}, {"selfweighted:2", 3},
		{"selfweighted:x", 3}, {"rb-selectedmean:0", 4},
		{"quantized:0", 4}, {"quantized:x", 4},
		{"floodroot:9", 4}, {"floodroot:x", 4},
		{"midpoint:arg", 3},
	} {
		if _, err := Algorithms.New(bad.in, bad.n); err == nil {
			t.Errorf("Algorithms.New(%q, n=%d) succeeded, want error", bad.in, bad.n)
		}
	}
}

func TestAdversaryRegistrySpecs(t *testing.T) {
	m, err := Models.New("deaf:3")
	if err != nil {
		t.Fatal(err)
	}
	alg, err := Algorithms.New("midpoint", 3)
	if err != nil {
		t.Fatal(err)
	}
	env := AdversaryEnv{Model: m, Algorithm: alg, N: 3, Seed: 1, Depth: 2}
	for _, good := range []string{"random", "cycle", "fixed:1", "randomrooted:0.3", "randomnonsplit:0.3"} {
		if _, err := Adversaries.New(good, env); err != nil {
			t.Errorf("Adversaries.New(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"", "nope", "fixed:9", "fixed:x", "randomrooted:0",
		"randomrooted:2", "random:arg", "cycle:arg"} {
		if _, err := Adversaries.New(bad, env); err == nil {
			t.Errorf("Adversaries.New(%q) succeeded, want error", bad)
		}
	}
	// greedy without an engine must be rejected, not crash.
	if _, err := Adversaries.New("greedy", env); err == nil {
		t.Error("greedy without an engine accepted")
	}
	// Model-needing sources without a model must be rejected.
	if _, err := Adversaries.New("cycle", AdversaryEnv{N: 3, Seed: 1}); err == nil {
		t.Error("cycle without a model accepted")
	}
}

func TestRegistryRegistrationErrors(t *testing.T) {
	r := NewAlgorithmRegistry()
	if err := r.Register(AlgorithmFactory{}); err == nil {
		t.Error("empty algorithm factory accepted")
	}
	ok := AlgorithmFactory{Name: "x", New: Algorithms.New}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Error("duplicate algorithm factory accepted")
	}

	mr := NewModelRegistry()
	if err := mr.Register(ModelFactory{}); err == nil {
		t.Error("empty model factory accepted")
	}
	ar := NewAdversaryRegistry()
	if err := ar.Register(AdversaryFactory{}); err == nil {
		t.Error("empty adversary factory accepted")
	}
}

// contractRegistry adapts one typed registry to the contract every spec
// registry shares: register names an entry whose Usage and Summary derive
// from its name (with or without a constructor), and resolve resolves a
// spec string.
type contractRegistry struct {
	register func(name string, withNew bool) error
	resolve  func(spec string) error
	names    func() []string
	describe func() []FactoryInfo
}

// contractRegistries returns, per registry kind, a constructor of a new,
// empty registry of that kind under the contract adapter.
func contractRegistries() []struct {
	kind  string
	fresh func() contractRegistry
} {
	usage := func(name string) string { return name + ":ARG" }
	summary := func(name string) string { return "the " + name + " entry" }
	return []struct {
		kind  string
		fresh func() contractRegistry
	}{
		{"algorithm", func() contractRegistry {
			r := NewAlgorithmRegistry()
			build := func(string, int) (core.Algorithm, error) { return Algorithms.New("midpoint", 2) }
			return contractRegistry{
				register: func(name string, withNew bool) error {
					f := AlgorithmFactory{Name: name, Usage: usage(name), Summary: summary(name)}
					if withNew {
						f.New = build
					}
					return r.Register(f)
				},
				resolve:  func(spec string) error { _, err := r.New(spec, 2); return err },
				names:    r.Names,
				describe: r.Describe,
			}
		}},
		{"model", func() contractRegistry {
			r := NewModelRegistry()
			build := func(string) (*model.Model, error) { return model.TwoAgent(), nil }
			return contractRegistry{
				register: func(name string, withNew bool) error {
					f := ModelFactory{Name: name, Usage: usage(name), Summary: summary(name)}
					if withNew {
						f.New = build
					}
					return r.Register(f)
				},
				resolve:  func(spec string) error { _, err := r.New(spec); return err },
				names:    r.Names,
				describe: r.Describe,
			}
		}},
		{"adversary", func() contractRegistry {
			r := NewAdversaryRegistry()
			build := func(string, AdversaryEnv) (core.PatternSource, error) {
				return core.Fixed{G: graph.Complete(2)}, nil
			}
			return contractRegistry{
				register: func(name string, withNew bool) error {
					f := AdversaryFactory{Name: name, Usage: usage(name), Summary: summary(name)}
					if withNew {
						f.New = build
					}
					return r.Register(f)
				},
				resolve:  func(spec string) error { _, err := r.New(spec, AdversaryEnv{N: 2}); return err },
				names:    r.Names,
				describe: r.Describe,
			}
		}},
		{"scenario", func() contractRegistry {
			r := NewScenarioRegistry()
			build := func(string, ScenarioEnv) (*scenario.Schedule, error) { return scenario.EventuallyRooted(2, 1) }
			return contractRegistry{
				register: func(name string, withNew bool) error {
					f := ScenarioFactory{Name: name, Usage: usage(name), Summary: summary(name)}
					if withNew {
						f.New = build
					}
					return r.Register(f)
				},
				resolve:  func(spec string) error { _, err := r.New(spec, ScenarioEnv{}); return err },
				names:    r.Names,
				describe: r.Describe,
			}
		}},
	}
}

// TestRegistryContract holds all four spec registries to one contract,
// error strings byte for byte: registration needs a name and a
// constructor and rejects duplicates, an unknown spec names the kind and
// lists what is registered, and Names and Describe list the entries
// sorted, Describe with their Usage and Summary.
func TestRegistryContract(t *testing.T) {
	wantErr := func(t *testing.T, what string, err error, want string) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", what, err, want)
		}
	}
	for _, tc := range contractRegistries() {
		t.Run(tc.kind, func(t *testing.T) {
			r := tc.fresh()
			needs := fmt.Sprintf("consensus: %s factory needs a name and a constructor", tc.kind)
			wantErr(t, "empty name", r.register("", true), needs)
			wantErr(t, "nil constructor", r.register("a", false), needs)
			for _, name := range []string{"b", "a", "c"} {
				if err := r.register(name, true); err != nil {
					t.Fatalf("register %q: %v", name, err)
				}
			}
			wantErr(t, "duplicate", r.register("a", true), fmt.Sprintf("consensus: %s %q already registered", tc.kind, "a"))
			wantErr(t, "unknown spec", r.resolve("nope:1"), fmt.Sprintf("consensus: unknown %s %q (have a, b, c)", tc.kind, "nope"))
			if err := r.resolve("a:x"); err != nil {
				t.Errorf("resolve a:x: %v", err)
			}

			names, infos := r.names(), r.describe()
			if !slices.Equal(names, []string{"a", "b", "c"}) {
				t.Errorf("Names() = %v, want [a b c]", names)
			}
			if len(infos) != len(names) {
				t.Fatalf("Describe() lists %d entries, Names() %d", len(infos), len(names))
			}
			for i, info := range infos {
				want := FactoryInfo{Name: names[i], Usage: names[i] + ":ARG", Summary: "the " + names[i] + " entry"}
				if info != want {
					t.Errorf("Describe()[%d] = %+v, want %+v", i, info, want)
				}
			}
		})
	}
}

// TestRegistryConcurrentRegisterResolve registers entries while other
// goroutines resolve specs and list the registry, for the race detector.
func TestRegistryConcurrentRegisterResolve(t *testing.T) {
	const writers, perWriter, readers = 4, 16, 4
	for _, tc := range contractRegistries() {
		t.Run(tc.kind, func(t *testing.T) {
			r := tc.fresh()
			if err := r.register("seed", true); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, writers*perWriter+readers*perWriter)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						errs <- r.register(fmt.Sprintf("w%d-%d", w, i), true)
					}
				}()
			}
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						errs <- r.resolve("seed")
						if len(r.describe()) < 1 {
							errs <- fmt.Errorf("Describe lost the seed entry")
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := len(r.names()); got != 1+writers*perWriter {
				t.Fatalf("%d entries after concurrent registration, want %d", got, 1+writers*perWriter)
			}
		})
	}
}

func TestRegistryDescribe(t *testing.T) {
	if names := Algorithms.Names(); len(names) < 9 {
		t.Errorf("algorithm registry too small: %v", names)
	}
	infos := Models.Describe()
	if len(infos) != len(Models.Names()) {
		t.Errorf("Describe/Names mismatch: %d vs %d", len(infos), len(Models.Names()))
	}
	for _, info := range infos {
		if info.Name == "" || info.Usage == "" || info.Summary == "" {
			t.Errorf("incomplete model info: %+v", info)
		}
	}
}

func TestParseFloats(t *testing.T) {
	got, err := ParseFloats("0, 1, 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 0.5 {
		t.Errorf("ParseFloats = %v", got)
	}
	for _, bad := range []string{"", "a,b", "1,,2"} {
		if _, err := ParseFloats(bad); err == nil {
			t.Errorf("ParseFloats(%q) succeeded, want error", bad)
		}
	}
}
