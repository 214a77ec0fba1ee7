package algorithms_test

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBatchParallelMatchesSequential is the tile axis's differential
// gate across every dense algorithm: a batch cut into tiles stepped on
// their own goroutines, as a sweep runs a tile group, must be
// bit-identical — outputs, diameters, and full hidden state via the
// fingerprints — to the independent sequential runners, under shared
// and per-run graph sequences, at tile counts spanning 1 (one runner of
// the whole batch), a few, about B, and far beyond B (one run per
// tile).
func TestBatchParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7777))
	for _, tc := range denseCases(rng) {
		for _, par := range []int{1, 3, 8, 33} {
			for _, perRun := range []bool{false, true} {
				mode := "shared"
				if perRun {
					mode = "per-run"
				}
				t.Run(fmt.Sprintf("%s/%s/par%d", tc.name, mode, par), func(t *testing.T) {
					for trial := 0; trial < 3; trial++ {
						b := 1 + rng.Intn(7)
						rounds := 1 + rng.Intn(12)
						batchParityCheckPar(t, tc.alg, tc.n, b, rounds, rng, perRun, par)
					}
				})
			}
		}
	}
}
