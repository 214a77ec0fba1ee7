//go:build race

package consensus

// The race detector makes sync.Pool drop items at random, so allocation
// counts stop being reproducible under it.
func init() { raceDetector = true }
