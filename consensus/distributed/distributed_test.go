package distributed_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/consensus"
	"repro/consensus/distributed"
)

// mixedSpecs is the parity workload: fixed-graph models, per-run
// scenario schedules, a repeated spec, and a spec that fails to
// resolve.
func mixedSpecs() []consensus.RunSpec {
	return []consensus.RunSpec{
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 8},
		{Model: "deaf:6", Algorithm: "amortized", Adversary: "random", Rounds: 10, Seed: 3},
		{Scenario: "eventuallyrooted:5,2", Algorithm: "midpoint", Rounds: 10},
		{Model: "psi:5", Algorithm: "mean", Adversary: "cycle", Rounds: 6},
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 8}, // repeat of 0
		{Model: "deaf:4", Algorithm: "nonsense", Rounds: 4},                     // resolution error
		{Scenario: "partitionheal:6,2,4", Algorithm: "twothirds", Rounds: 9, Depth: 2},
	}
}

// parityProjection drops the transport-dependent Cached flag; everything
// else must match the single-process sweep bitwise.
type parityProjection struct {
	Index       int                   `json:"index"`
	Fingerprint string                `json:"fingerprint"`
	Summary     *consensus.RunSummary `json:"summary"`
	Err         string                `json:"error"`
}

func project(results []consensus.SweepResult) []byte {
	out := make([]parityProjection, len(results))
	for i, r := range results {
		out[i] = parityProjection{Index: r.Index, Fingerprint: r.Fingerprint, Summary: r.Summary, Err: r.Err}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return b
}

// singleProcess runs the reference sweep with a fresh cache.
func singleProcess(t *testing.T, specs []consensus.RunSpec) []consensus.SweepResult {
	t.Helper()
	results, err := consensus.Sweep(context.Background(), specs,
		consensus.WithSweepCache(consensus.NewSweepCache()))
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// postSweep submits one distributed sweep and decodes the merged
// response.
func postSweep(t *testing.T, baseURL string, req distributed.SweepRequest) (*distributed.SweepResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/api/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var sr distributed.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return &sr, resp
}

func getStatus(t *testing.T, baseURL string) distributed.CoordinatorStatus {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st distributed.CoordinatorStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// startCluster wires an httptest coordinator to two in-process workers,
// optionally wrapping each worker's handler.
func startCluster(t *testing.T, wrap func(i int, h http.Handler) http.Handler, copts ...distributed.CoordinatorOption) (*httptest.Server, *distributed.Coordinator) {
	t.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		var h http.Handler = distributed.NewWorker(distributed.WorkerTimeout(time.Minute))
		if wrap != nil {
			h = wrap(i, h)
		}
		ws := httptest.NewServer(h)
		t.Cleanup(ws.Close)
		urls = append(urls, ws.URL)
	}
	coord := distributed.NewCoordinator(append([]distributed.CoordinatorOption{
		distributed.CoordinatorWorkers(urls...),
		distributed.CoordinatorHealthInterval(0),
		distributed.CoordinatorRetry(3, 5*time.Millisecond),
	}, copts...)...)
	t.Cleanup(coord.Close)
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	return ts, coord
}

func TestDistributedSweepMatchesSingleProcess(t *testing.T) {
	specs := mixedSpecs()
	reference := singleProcess(t, specs)
	want := project(reference)
	wantErrs := 0
	for _, r := range reference {
		if r.Err != "" {
			wantErrs++
		}
	}
	if wantErrs == 0 || wantErrs == len(specs) {
		t.Fatalf("workload should mix successes and errors, got %d/%d errors", wantErrs, len(specs))
	}

	ts, _ := startCluster(t, nil, distributed.CoordinatorShardSpecs(2))
	sr, _ := postSweep(t, ts.URL, distributed.SweepRequest{Specs: specs})
	if got := project(sr.Results); !bytes.Equal(got, want) {
		t.Errorf("distributed sweep diverges from single-process:\n got %s\nwant %s", got, want)
	}
	if sr.Stats.Specs != len(specs) || sr.Stats.Errors != wantErrs {
		t.Errorf("stats = %+v, want %d specs and %d errors", sr.Stats, len(specs), wantErrs)
	}

	st := getStatus(t, ts.URL)
	if st.SpecsServed != uint64(len(specs)) {
		t.Errorf("specs served = %d, want %d", st.SpecsServed, len(specs))
	}
	if st.SpecsFailed != uint64(wantErrs) {
		t.Errorf("specs failed = %d, want %d", st.SpecsFailed, wantErrs)
	}
}

func TestResubmitServesFromStore(t *testing.T) {
	specs := mixedSpecs()
	ts, _ := startCluster(t, nil, distributed.CoordinatorShardSpecs(3))

	first, _ := postSweep(t, ts.URL, distributed.SweepRequest{Specs: specs})
	st1 := getStatus(t, ts.URL)

	second, _ := postSweep(t, ts.URL, distributed.SweepRequest{Specs: specs})
	st2 := getStatus(t, ts.URL)

	if got, want := project(second.Results), project(first.Results); !bytes.Equal(got, want) {
		t.Errorf("resubmitted sweep diverges:\n got %s\nwant %s", got, want)
	}
	if st2.ShardsDispatched != st1.ShardsDispatched {
		t.Errorf("resubmission dispatched %d new shards, want 0", st2.ShardsDispatched-st1.ShardsDispatched)
	}
	// Every fingerprintable spec (all but the resolution errors) must be
	// a store hit the second time — 100% of the addressable set.
	addressable := 0
	for _, r := range first.Results {
		if r.Fingerprint != "" {
			addressable++
		}
	}
	if addressable == 0 {
		t.Fatal("no addressable specs in workload")
	}
	fromStore := st2.SpecsFromStore - st1.SpecsFromStore
	if fromStore != uint64(addressable) {
		t.Errorf("resubmission served %d specs from store, want %d", fromStore, addressable)
	}
	if second.Stats.StoreHits != addressable {
		t.Errorf("resubmit stats.StoreHits = %d, want %d", second.Stats.StoreHits, addressable)
	}
}

// flakyHandler injects 5xx on the shard endpoint for the first n
// requests, then behaves.
type flakyHandler struct {
	inner http.Handler
	mu    sync.Mutex
	n     int
	seen  int
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/v1/shard" {
		f.mu.Lock()
		f.seen++
		inject := f.n > 0
		if inject {
			f.n--
		}
		f.mu.Unlock()
		if inject {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintln(w, `{"error":"injected worker failure"}`)
			return
		}
	}
	f.inner.ServeHTTP(w, r)
}

func TestParityUnderInjectedWorkerFailures(t *testing.T) {
	specs := mixedSpecs()
	want := project(singleProcess(t, specs))

	var flakes []*flakyHandler
	ts, _ := startCluster(t, func(i int, h http.Handler) http.Handler {
		// Worker 0 fails its first two shard requests; retries reroute
		// to worker 1 (or back after backoff).
		f := &flakyHandler{inner: h}
		if i == 0 {
			f.n = 2
		}
		flakes = append(flakes, f)
		return f
	}, distributed.CoordinatorShardSpecs(2))

	sr, _ := postSweep(t, ts.URL, distributed.SweepRequest{Specs: specs})
	if got := project(sr.Results); !bytes.Equal(got, want) {
		t.Errorf("sweep under worker failures diverges:\n got %s\nwant %s", got, want)
	}
	st := getStatus(t, ts.URL)
	if flakes[0].seen > 0 && st.ShardRetries == 0 {
		t.Errorf("worker 0 saw %d shard requests with %d injected failures but no retries recorded",
			flakes[0].seen, 2)
	}
	if st.ShardFailures != 0 {
		t.Errorf("shard failures = %d, want 0 (retries should have absorbed the 5xx)", st.ShardFailures)
	}
}

func TestMalformedShardPayloads(t *testing.T) {
	w := distributed.NewWorker()
	ws := httptest.NewServer(w)
	defer ws.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ws.URL+"/api/v1/shard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	cases := []struct {
		name string
		body string
	}{
		{"garbage", `{"shard": `},
		{"unknown field", `{"shard":"x","specs":[{"model":"deaf:4"}],"bogus":1}`},
		{"no specs", `{"shard":"x","specs":[]}`},
		{"rounds over cap", fmt.Sprintf(`{"shard":"x","specs":[{"model":"deaf:4","rounds":%d}]}`, consensus.MaxServedRounds+1)},
	}
	for _, tc := range cases {
		if resp := post(tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// The error must be JSON with an error field, and the worker must
	// still serve well-formed shards afterwards.
	resp := post(`{"shard":"ok","specs":[{"model":"deaf:4","algorithm":"midpoint","rounds":4}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-formed shard after malformed ones: status %d", resp.StatusCode)
	}
	var shard distributed.ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&shard); err != nil {
		t.Fatal(err)
	}
	if len(shard.Results) != 1 || shard.Results[0].Summary == nil {
		t.Errorf("shard response: %+v", shard)
	}
	if shard.Results[0].Fingerprint == "" {
		t.Error("shard result carries no fingerprint")
	}
}

// gatedHandler blocks shard requests until released.
type gatedHandler struct {
	inner   http.Handler
	gate    chan struct{}
	blocked chan struct{} // one token per request that reached the gate
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/v1/shard" {
		select {
		case g.blocked <- struct{}{}:
		default:
		}
		select {
		case <-g.gate:
		case <-r.Context().Done():
			return
		}
	}
	g.inner.ServeHTTP(w, r)
}

func TestBackpressureRejectsWith429(t *testing.T) {
	gate := make(chan struct{})
	g := &gatedHandler{gate: gate, blocked: make(chan struct{}, 16)}
	ts, _ := startCluster(t, func(i int, h http.Handler) http.Handler {
		g.inner = h
		return g
	}, distributed.CoordinatorQueueCapacity(1))
	// Both worker URLs share one gate handler; inner is the last worker,
	// which is fine — the gate is what matters.

	// Occupy the queue with a sweep that blocks on the gated worker.
	firstDone := make(chan *distributed.SweepResponse, 1)
	go func() {
		sr, _ := postSweep(t, ts.URL, distributed.SweepRequest{Specs: []consensus.RunSpec{
			{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 5},
		}})
		firstDone <- sr
	}()
	select {
	case <-g.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("first sweep never reached a worker")
	}

	// The queue (capacity 1) is now full: a second sweep must bounce
	// with 429 and a Retry-After hint, before any computation.
	sr, resp := postSweep(t, ts.URL, distributed.SweepRequest{Specs: []consensus.RunSpec{
		{Model: "deaf:6", Algorithm: "midpoint", Adversary: "cycle", Rounds: 5},
	}})
	if sr != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second sweep status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}

	close(gate)
	select {
	case sr := <-firstDone:
		if sr == nil {
			t.Fatal("first sweep failed after gate release")
		}
		if sr.Results[0].Err != "" {
			t.Errorf("first sweep result: %s", sr.Results[0].Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("first sweep never completed")
	}
	st := getStatus(t, ts.URL)
	if st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after drain, want 0", st.QueueDepth)
	}
}

// readSSE parses one SSE stream into (event, payload) pairs.
func readSSE(t *testing.T, r *bufio.Reader) []struct{ event, data string } {
	t.Helper()
	var events []struct{ event, data string }
	var cur struct{ event, data string }
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.event != "":
			events = append(events, cur)
			cur = struct{ event, data string }{}
		}
	}
	return events
}

func TestStreamingSweepDeliversAllResultsThenDone(t *testing.T) {
	specs := mixedSpecs()
	want := project(singleProcess(t, specs))

	// Worker 0 flakes once: the stream must still deliver every result.
	ts, _ := startCluster(t, func(i int, h http.Handler) http.Handler {
		f := &flakyHandler{inner: h}
		if i == 0 {
			f.n = 1
		}
		return f
	}, distributed.CoordinatorShardSpecs(2))

	body, _ := json.Marshal(distributed.SweepRequest{Specs: specs})
	resp, err := http.Post(ts.URL+"/api/v1/sweep/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	events := readSSE(t, bufio.NewReader(resp.Body))
	if len(events) == 0 || events[len(events)-1].event != "done" {
		t.Fatalf("stream did not end with done: %+v", events)
	}
	merged := make([]consensus.SweepResult, len(specs))
	seen := 0
	for _, ev := range events[:len(events)-1] {
		if ev.event != "results" {
			t.Fatalf("unexpected event %q", ev.event)
		}
		var re distributed.ResultsEvent
		if err := json.Unmarshal([]byte(ev.data), &re); err != nil {
			t.Fatal(err)
		}
		for _, r := range re.Results {
			merged[r.Index] = r
			seen++
		}
	}
	if seen != len(specs) {
		t.Fatalf("stream delivered %d results, want %d", seen, len(specs))
	}
	if got := project(merged); !bytes.Equal(got, want) {
		t.Errorf("streamed results diverge:\n got %s\nwant %s", got, want)
	}
	var stats distributed.SweepStats
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Specs != len(specs) {
		t.Errorf("done stats = %+v", stats)
	}
}

func TestClientDisconnectDuringStreamAborts(t *testing.T) {
	gate := make(chan struct{})
	g := &gatedHandler{gate: gate, blocked: make(chan struct{}, 16)}
	ts, coord := startCluster(t, func(i int, h http.Handler) http.Handler {
		g.inner = h
		return g
	})
	defer close(gate)

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(distributed.SweepRequest{Specs: []consensus.RunSpec{
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 5},
	}})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/api/v1/sweep/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	respCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, err = bufio.NewReader(resp.Body).ReadString(0) // read until cut
			resp.Body.Close()
		}
		respCh <- err
	}()

	select {
	case <-g.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("stream sweep never reached a worker")
	}
	cancel()
	<-respCh

	// The dispatch context dies with the client: the queue must drain
	// without the gate ever opening.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Status().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d after client disconnect, want 0", coord.Status().QueueDepth)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWorkerRegistrationEndpoint(t *testing.T) {
	w := httptest.NewServer(distributed.NewWorker())
	defer w.Close()
	coord := distributed.NewCoordinator(distributed.CoordinatorHealthInterval(0))
	defer coord.Close()
	ts := httptest.NewServer(coord)
	defer ts.Close()

	// No workers: a sweep needing compute is 503.
	_, resp := postSweep(t, ts.URL, distributed.SweepRequest{Specs: []consensus.RunSpec{
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 4},
	}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep without workers: status %d, want 503", resp.StatusCode)
	}

	reg, err := http.Post(ts.URL+"/api/v1/workers", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, w.URL)))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Body.Close()
	var rr distributed.RegisterResponse
	if err := json.NewDecoder(reg.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Healthy || rr.Workers != 1 {
		t.Fatalf("registration: %+v", rr)
	}

	sr, _ := postSweep(t, ts.URL, distributed.SweepRequest{Specs: []consensus.RunSpec{
		{Model: "deaf:4", Algorithm: "midpoint", Adversary: "cycle", Rounds: 4},
	}})
	if sr == nil || sr.Results[0].Summary == nil {
		t.Fatal("sweep after registration failed")
	}

	bad, err := http.Post(ts.URL+"/api/v1/workers", "application/json",
		strings.NewReader(`{"url":"not a url"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad registration URL: status %d, want 400", bad.StatusCode)
	}
}

// TestWorkerRegistrationCap fills the fleet with MaxWorkers distinct URLs
// whose probes fail fast, then checks that one more is refused with 400
// and that a known URL still registers.
func TestWorkerRegistrationCap(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	defer dead.Close()
	coord := distributed.NewCoordinator(distributed.CoordinatorHealthInterval(0))
	defer coord.Close()
	ts := httptest.NewServer(coord)
	defer ts.Close()
	register := func(url string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/workers", "application/json",
			strings.NewReader(fmt.Sprintf(`{"url":%q}`, url)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < distributed.MaxWorkers; i++ {
		if code := register(fmt.Sprintf("%s/w%d", dead.URL, i)); code != http.StatusOK {
			t.Fatalf("registration %d: status %d, want 200", i, code)
		}
	}
	if code := register(dead.URL + "/extra"); code != http.StatusBadRequest {
		t.Errorf("registration past the cap: status %d, want 400", code)
	}
	if got := coord.WorkerCount(); got != distributed.MaxWorkers {
		t.Errorf("WorkerCount = %d, want the cap %d", got, distributed.MaxWorkers)
	}
	if code := register(dead.URL + "/w0"); code != http.StatusOK {
		t.Errorf("re-registering a known URL at the cap: status %d, want 200", code)
	}
}

func TestLocalClusterAndReplay(t *testing.T) {
	lc, err := distributed.StartLocal(2,
		[]distributed.CoordinatorOption{distributed.CoordinatorHealthInterval(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	entries := distributed.SyntheticStream(distributed.SyntheticOptions{
		Requests: 6, SpecsPerRequest: 3, RepeatFraction: 0.5, IntervalMS: 1, Seed: 7,
	})
	// Determinism: the same options regenerate the same stream.
	again := distributed.SyntheticStream(distributed.SyntheticOptions{
		Requests: 6, SpecsPerRequest: 3, RepeatFraction: 0.5, IntervalMS: 1, Seed: 7,
	})
	a, _ := json.Marshal(entries)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Fatal("synthetic stream is not deterministic")
	}
	// Rounds in the synthetic palette are small but nonzero.
	for _, e := range entries {
		for _, s := range e.Request.Specs {
			if s.Rounds <= 0 {
				t.Fatalf("synthetic spec with no rounds: %+v", s)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := distributed.Replay(ctx, lc.BaseURL, entries, distributed.ReplayOptions{
		Speed: 100, Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("replay errors: %+v", rep)
	}
	if rep.Requests != 6 || rep.ReqPerSec <= 0 || rep.LatencyP99MS < rep.LatencyP50MS {
		t.Errorf("replay report: %+v", rep)
	}

	// JSONL round-trip.
	var buf bytes.Buffer
	if err := distributed.WriteStream(&buf, entries); err != nil {
		t.Fatal(err)
	}
	back, err := distributed.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := json.Marshal(back)
	if !bytes.Equal(a, c) {
		t.Fatal("stream JSONL round-trip diverges")
	}
}

func TestWorkerStatusCounters(t *testing.T) {
	w := distributed.NewWorker()
	ws := httptest.NewServer(w)
	defer ws.Close()

	body := `{"shard":"s1","specs":[{"model":"deaf:4","algorithm":"midpoint","adversary":"cycle","rounds":4}]}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ws.URL+"/api/v1/shard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ws.URL + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st distributed.WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.ShardSpecs != 2 {
		t.Errorf("worker shard counters: %+v", st)
	}
	// The repeated spec is a sweep-cache hit on the second shard.
	if st.SweepCache.Hits == 0 {
		t.Errorf("worker sweep cache recorded no hits: %+v", st.SweepCache)
	}
}

// TestOverflowIsPerSpecErrorThroughCluster sends a run that overflows
// the float range, next to a healthy spec in the same shard, through a
// StartLocal cluster: the shard answers, the overflowing spec gets its
// own error (on resubmission too, since it was never stored) and the
// neighbour is served.
func TestOverflowIsPerSpecErrorThroughCluster(t *testing.T) {
	lc, err := distributed.StartLocal(1,
		[]distributed.CoordinatorOption{distributed.CoordinatorHealthInterval(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	specs := []consensus.RunSpec{
		{Model: "deaf:3", Algorithm: "midpoint", Adversary: "cycle", Inputs: []float64{1.7e308, -1.7e308, 0}},
		{Model: "deaf:3", Algorithm: "midpoint", Adversary: "cycle", Inputs: []float64{1, -1, 0}},
	}
	for pass := 0; pass < 2; pass++ {
		sr, resp := postSweep(t, lc.BaseURL, distributed.SweepRequest{Specs: specs})
		if sr == nil {
			t.Fatalf("pass %d: status %d", pass, resp.StatusCode)
		}
		if r := sr.Results[0]; r.Err == "" || r.Summary != nil {
			t.Errorf("pass %d: overflowing run not reported as an error: %+v", pass, r)
		}
		if r := sr.Results[1]; r.Err != "" || r.Summary == nil {
			t.Errorf("pass %d: neighbour not served: %+v", pass, r)
		}
	}
}
