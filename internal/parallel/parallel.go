// Package parallel holds the repository's one bounded parallel-for.
package parallel

import (
	"sync"
	"sync/atomic"
)

// For calls f(0..n-1) on at most workers goroutines, the caller's among
// them, and returns when every call has. Indices are handed out in
// ascending order, one at a time, so with workers <= 1 the calls run in
// order on the caller's goroutine. The caller takes indices too rather
// than parking until its helpers finish: when the calls are short, such
// as resolving a handful of small specs, waking a parked caller costs
// more than the helpers save.
func For(workers, n int, f func(int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
