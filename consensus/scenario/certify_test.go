package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// exhaustiveRootedWindow is the rooted-window search by definition: for
// each k = 2..MaxRootedWindow it rebuilds every start's k-round window
// product from scratch and returns the first k whose windows are all
// rooted. rootedWindow must agree with it on every schedule.
func exhaustiveRootedWindow(s *Schedule) (window int, skipped bool) {
	allRooted := true
	for _, g := range append(append([]graph.Graph(nil), s.prefix...), s.loop...) {
		allRooted = allRooted && g.IsRooted()
	}
	if allRooted {
		return 1, false
	}
	starts := len(s.prefix) + max(len(s.loop), 1)
	if starts > MaxRootedWindowStarts {
		return 0, true
	}
	for k := 2; k <= MaxRootedWindow; k++ {
		ok := true
		for start := 1; start <= starts && ok; start++ {
			p := s.At(start)
			for t := start + 1; t < start+k; t++ {
				p = graph.Product(p, s.At(t))
			}
			ok = p.IsRooted()
		}
		if ok {
			return k, false
		}
	}
	return 0, false
}

// TestRootedWindowMatchesExhaustiveSearch pins the incremental window
// search to the exhaustive one on eventually-rooted schedules around the
// MaxRootedWindow boundary, partitions healing at several rounds, and
// random lassos.
func TestRootedWindowMatchesExhaustiveSearch(t *testing.T) {
	type named struct {
		name string
		s    *Schedule
	}
	var cases []named
	for _, n := range []int{2, 3, 5, 16, 70} {
		for _, k := range []int{0, 1, 2, 5, 30, 63, 64, 65, 100} {
			cases = append(cases, named{fmt.Sprintf("eventuallyrooted:%d,%d", n, k), mk(t)(EventuallyRooted(n, k))})
		}
	}
	for _, n := range []int{4, 16, 200} {
		for _, blocks := range []int{1, 2, 4} {
			for _, healAt := range []int{1, 10, 40, 70} {
				cases = append(cases, named{fmt.Sprintf("partitionheal:%d,%d,%d", n, blocks, healAt), mk(t)(PartitionHeal(n, blocks, healAt))})
			}
		}
	}
	rng := rand.New(rand.NewSource(0))
	probs := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4}
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(9)
		p := probs[rng.Intn(len(probs))]
		prefix := make([]graph.Graph, rng.Intn(40))
		loop := make([]graph.Graph, rng.Intn(40))
		if len(prefix)+len(loop) == 0 {
			loop = loop[:1]
		}
		for j := range prefix {
			prefix[j] = graph.Random(rng, n, p)
		}
		for j := range loop {
			loop[j] = graph.Random(rng, n, p)
		}
		cases = append(cases, named{fmt.Sprintf("lasso-%d(n=%d,p=%g,%d+%d)", i, n, p, len(prefix), len(loop)), mk(t)(NewLasso(n, prefix, loop))})
	}
	seen := map[int]bool{}
	for _, tc := range cases {
		wantW, wantSkip := exhaustiveRootedWindow(tc.s)
		gotW, gotSkip, err := tc.s.rootedWindow(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if gotW != wantW || gotSkip != wantSkip {
			t.Errorf("%s: rootedWindow = (%d, %v), exhaustive search (%d, %v)", tc.name, gotW, gotSkip, wantW, wantSkip)
		}
		seen[wantW] = true
	}
	for _, w := range []int{0, 1, 2, MaxRootedWindow} {
		if !seen[w] {
			t.Errorf("no case has rooted window %d", w)
		}
	}
}
