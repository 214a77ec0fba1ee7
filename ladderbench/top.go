package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/consensus"
	"repro/consensus/distributed"
)

// A run makes coldSetups untimed set-ups and then setups timed ones;
// setup_s is the median of the timed ones. On a 2-CPU machine the first
// four set-ups of a process run up to half again as long as later ones,
// while the process's heap, code and loopback sockets are first used.
// Every set-up takes a new library, and lower-bound's libraries hold four
// valency engines each, so 14 set-ups and the checker's library stay
// within the 64 engines the process-wide pool shares.
const (
	coldSetups = 4
	setups     = 10
)

// maxRefusals bounds the retries of a request the coordinator refuses
// with 429 Too Many Requests; a request still refused counts as failed.
const maxRefusals = 2

// sample is one request's timing in a pass, measured from the pass's
// start, with the response body or the error.
type sample struct {
	sent, done time.Duration
	body       []byte
	err        error
}

// pass is one closed-loop replay of a request sequence through one rung.
type pass struct {
	reqs    []*request
	samples []sample
}

// caller sends one request through a rung; parent is the request's span.
type caller func(ctx context.Context, r *request, parent int64) ([]byte, error)

// cluster is the top rung: one coordinator plus one worker on loopback.
// StartLocal gives every cluster a new result store, worker sweep cache
// and response cache.
type cluster struct {
	lc     *distributed.LocalCluster
	client *http.Client
}

func startCluster(lib *consensus.Library) (*cluster, error) {
	lc, err := distributed.StartLocal(1,
		[]distributed.CoordinatorOption{distributed.CoordinatorLibrary(lib)},
		[]distributed.WorkerOption{distributed.WorkerLibrary(lib)})
	if err != nil {
		return nil, err
	}
	return &cluster{lc: lc, client: newClient()}, nil
}

// sweep is the cluster's caller.
func (c *cluster) sweep(ctx context.Context, r *request, _ int64) ([]byte, error) {
	return post(ctx, c.client, c.lc.BaseURL+"/api/v1/sweep", r.body)
}

func (c *cluster) close() {
	c.client.CloseIdleConnections()
	c.lc.Close()
}

// setUp starts a cluster on a new library and sends it one untimed
// warm-up request, n times over, and returns the last cluster with every
// set-up time. Each set-up starts after a garbage collection, so that
// none pays for the clusters closed before it. Warm-up requests come
// from a stream of their own, so the measured requests do not depend on
// n.
func setUp(ctx context.Context, w *workload, seed int64, n int) (*cluster, []float64, error) {
	warm := newStream(w, ^seed)
	var times []float64
	for {
		r := warm.next(0)
		runtime.GC()
		start := time.Now()
		c, err := startCluster(newLibrary(nil, 0))
		if err != nil {
			return nil, nil, err
		}
		if _, err := c.sweep(ctx, r, 0); err != nil {
			c.close()
			return nil, nil, fmt.Errorf("warm-up request: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if len(times) >= n {
			return c, times, nil
		}
		c.close()
	}
}

// measure is the untraced run: set up, send the workload's requests to
// the cluster for one window, check every response, and report the
// end-to-end metrics.
func measure(ctx context.Context, w *workload, seed int64, window time.Duration) (*result, error) {
	c, setupTimes, err := setUp(ctx, w, seed, coldSetups+setups)
	if err != nil {
		return nil, err
	}
	p := closedLoop(ctx, newStream(w, seed), window, c.sweep)
	rss, err := peakRSSMiB()
	c.close()
	if err != nil {
		return nil, err
	}
	failed := newChecker().failures(p)
	res, err := outcome(failed)
	if err != nil {
		return nil, err
	}
	res.Metrics = endToEnd(p, failed, setupTimes[coldSetups:], rss)
	return res, nil
}

// endToEnd computes the end-to-end metrics of a checked top-rung pass.
func endToEnd(p *pass, failed []bool, setupTimes []float64, rssMiB float64) map[string]metric {
	ok := float64(len(failed) - countTrue(failed))
	return map[string]metric{
		"setup_s":          {median(setupTimes), "s"},
		"run_rounds_per_s": {p.roundsPerSecond(failed), "run-rounds/s"},
		"latency_p50_ms":   {median(latenciesMS(p.samples)), "ms"},
		"success_frac":     {ratio(ok, float64(len(failed))), "ratio"},
		"peak_rss_mb":      {rssMiB, "MiB"},
	}
}

// roundsPerSecond is Σ spec rounds of the requests that passed every
// check, over the time the client waited on the program: the sum of the
// request latencies.
func (p *pass) roundsPerSecond(failed []bool) float64 {
	var rounds float64
	var wall time.Duration
	for i, s := range p.samples {
		if !failed[i] {
			rounds += float64(p.reqs[i].rounds)
		}
		wall += s.done - s.sent
	}
	return ratio(rounds, wall.Seconds())
}

// closedLoop sends one request after another until the window has
// elapsed. Each request is generated before its timer starts.
func closedLoop(ctx context.Context, st *stream, window time.Duration, call caller) *pass {
	p := &pass{}
	start := time.Now()
	for time.Since(start) < window && ctx.Err() == nil {
		r := st.next(len(p.reqs))
		s := sample{sent: time.Since(start)}
		s.body, s.err = call(ctx, r, 0)
		s.done = time.Since(start)
		p.reqs = append(p.reqs, r)
		p.samples = append(p.samples, s)
	}
	return p
}

// replay sends p's requests through call in order, each after the last
// has returned. With tr non-nil every request is a root span of the
// given rung.
func replay(ctx context.Context, p *pass, tr *tracer, rung int, call caller) []sample {
	out := make([]sample, len(p.reqs))
	start := time.Now()
	for i, r := range p.reqs {
		s := &out[i]
		s.sent = time.Since(start)
		id := tr.begin(rung, "request", 0)
		s.body, s.err = call(ctx, r, id)
		tr.end(id)
		s.done = time.Since(start)
	}
	return out
}

// parallel calls f(0..n-1) from at most workers goroutines, handing out
// indices in order, and returns once every call has.
func parallel(workers, n int, f func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// shardRanges returns the [lo, hi) spec ranges a coordinator with one
// worker cuts a request of n fresh specs into: DefaultShardSpecs specs
// each, in request order.
func shardRanges(n int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += distributed.DefaultShardSpecs {
		out = append(out, [2]int{lo, min(lo+distributed.DefaultShardSpecs, n)})
	}
	return out
}

// eachShard calls f on every shard range of an n-spec request at once,
// as the coordinator dispatches a request's shards to its worker, and
// returns once every call has.
func eachShard(n int, f func(lo, hi int)) {
	rs := shardRanges(n)
	parallel(len(rs), len(rs), func(k int) { f(rs[k][0], rs[k][1]) })
}

// newClient returns an HTTP client holding at most nproc connections.
func newClient() *http.Client {
	conns := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one JSON body and returns the response body of a 200. A 429
// is retried after its Retry-After, at most maxRefusals times.
func post(ctx context.Context, cl *http.Client, url string, body []byte) ([]byte, error) {
	for refusals := 0; ; refusals++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cl.Do(req)
		if err != nil {
			return nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return nil, err
		case resp.StatusCode == http.StatusTooManyRequests && refusals < maxRefusals:
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(max(secs, 1)) * time.Second):
			}
		case resp.StatusCode != http.StatusOK:
			return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(out))
		default:
			return out, nil
		}
	}
}
