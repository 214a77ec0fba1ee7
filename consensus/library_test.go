package consensus

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// copyLibrary returns a library of new registries holding the default
// registries' factories, with every resolved algorithm passed through
// wrap (nil keeps it as is). New registries have new identities, so
// nothing cached or pooled under the defaults is served to sessions
// resolved against the copy.
func copyLibrary(t testing.TB, wrap func(core.Algorithm) core.Algorithm) *Library {
	t.Helper()
	lib := &Library{
		Algorithms:  NewAlgorithmRegistry(),
		Models:      NewModelRegistry(),
		Adversaries: NewAdversaryRegistry(),
		Scenarios:   NewScenarioRegistry(),
	}
	var errs []error
	for _, f := range factories(&Algorithms.mu, Algorithms.m) {
		if wrap != nil {
			build := f.New
			f.New = func(arg string, n int) (core.Algorithm, error) {
				alg, err := build(arg, n)
				if err != nil {
					return nil, err
				}
				return wrap(alg), nil
			}
		}
		errs = append(errs, lib.Algorithms.Register(f))
	}
	for _, f := range factories(&Models.mu, Models.m) {
		errs = append(errs, lib.Models.Register(f))
	}
	for _, f := range factories(&Adversaries.mu, Adversaries.m) {
		errs = append(errs, lib.Adversaries.Register(f))
	}
	for _, f := range factories(&Scenarios.mu, Scenarios.m) {
		errs = append(errs, lib.Scenarios.Register(f))
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return lib
}

// factories snapshots a registry's factories under its lock.
func factories[F any](mu *sync.RWMutex, m map[string]F) []F {
	mu.RLock()
	defer mu.RUnlock()
	return slices.Collect(maps.Values(m))
}

// agentsOnlyLibrary returns a copy of the default library whose
// algorithms are wrapped in core.AgentsOnly: sessions, sweeps and queries
// resolved against it run on the Agent path, the reference the dense
// path must match bit for bit.
func agentsOnlyLibrary(t testing.TB) *Library { return copyLibrary(t, core.AgentsOnly) }
