package distributed

import (
	"repro/consensus"
)

// Store is the coordinator's content-addressed result store: completed
// run summaries addressed by the run's content fingerprint — the hex
// SHA-256 of the session's canonical configuration key (which embeds the
// schedule's SHA-256 trace fingerprint for scenario runs, and the
// initial-configuration fingerprint the valency tables are keyed by).
// Addresses are process-independent, so any worker's result stores under
// the same key the coordinator computed at submission, and a re-submitted
// spec — from any client, any ordering, any sweep composition — is a
// lookup, not a recompute.
//
// The store rides the bounded, FIFO-evicting, instrumented SweepCache:
// same eviction policy, same hit/miss/eviction counters (surfaced at
// /api/v1/status), just addressed by content instead of by process-local
// cache key.
type Store struct {
	cache *consensus.SweepCache
}

// DefaultStoreCapacity bounds the coordinator's store.
const DefaultStoreCapacity = 1 << 18

// NewStore returns an empty store holding at most DefaultStoreCapacity
// summaries.
func NewStore() *Store {
	return &Store{cache: consensus.NewSweepCacheSize(DefaultStoreCapacity)}
}

// Lookup returns the summary stored under the given content
// fingerprint, counting a hit or a miss.
func (s *Store) Lookup(fingerprint string) (consensus.RunSummary, bool) {
	return s.cache.Lookup(fingerprint)
}

// Insert stores a summary under its content fingerprint.
func (s *Store) Insert(fingerprint string, sum consensus.RunSummary) {
	s.cache.Insert(fingerprint, sum)
}

// Counters returns the store's hit/miss/eviction accounting.
func (s *Store) Counters() consensus.SweepCacheCounters { return s.cache.Counters() }
