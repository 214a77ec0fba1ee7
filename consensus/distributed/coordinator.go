package distributed

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/consensus"
	"repro/internal/httpjson"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Coordinator defaults. Shards are deliberately small relative to the
// batch tile (DefaultSweepBatch): the coordinator's unit of retry and
// rerouting is the shard, and a small shard bounds the work lost when a
// worker dies mid-sweep.
const (
	DefaultShardSpecs     = 16
	DefaultQueueCapacity  = 64
	DefaultShardAttempts  = 3
	DefaultRetryBase      = 200 * time.Millisecond
	DefaultShardTimeout   = 60 * time.Second
	DefaultHealthInterval = 5 * time.Second

	// DefaultWorkerInflight caps the shards in flight to one worker.
	DefaultWorkerInflight = 4

	// MaxSweepSpecs bounds one distributed sweep request.
	MaxSweepSpecs = 4096

	// MaxWorkers bounds the registered fleet. Every pending spec ranks
	// the whole fleet (rankedFor), so an unbounded list of registrations
	// would grow memory and slow every sweep.
	MaxWorkers = 64

	// probeTimeout bounds one worker health probe.
	probeTimeout = 2 * time.Second

	// DefaultStoreCapacity bounds the coordinator's result store.
	DefaultStoreCapacity = 1 << 18

	// shardResultBytes is what a shard response may add, per spec, to
	// the length of the shard request: a summary of a 1024-agent run
	// encodes in about 25 KB, and a longer response fails its attempt.
	shardResultBytes = 64 << 10

	// fpMemoCap bounds the canonical-spec -> fingerprint memo. The memo
	// is reset, not evicted, past capacity: fingerprinting is cheap for
	// everything but long scenarios, and those re-memoize on first use.
	// Entries are keyed by the SHA-256 of the spec's JSON, so a full memo
	// holds 8192 small entries however large the specs (a spec with 256
	// inputs is about 5 KB of JSON).
	fpMemoCap = 8192
)

// errNoWorkers rejects dispatch when the fleet is empty.
var errNoWorkers = errors.New("distributed: no workers registered")

// BusyError reports a sweep rejected by backpressure: admitting its
// shards would overflow the bounded queue. The HTTP surface maps it to
// 429 with a Retry-After header.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("distributed: shard queue full, retry after %s", e.RetryAfter)
}

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*coordConfig)

type coordConfig struct {
	lib            *consensus.Library
	workerURLs     []string
	shardSpecs     int
	queueCap       int
	attempts       int
	retryBase      time.Duration
	shardTimeout   time.Duration
	healthInterval time.Duration
	client         *http.Client
	logger         *slog.Logger
}

// CoordinatorLibrary fingerprints every spec against lib. Workers must
// run the same registry contents for fingerprints to agree.
func CoordinatorLibrary(lib *consensus.Library) CoordinatorOption {
	return func(c *coordConfig) { c.lib = lib }
}

// CoordinatorWorkers pins worker base URLs at construction; more can
// register later via POST /api/v1/workers.
func CoordinatorWorkers(urls ...string) CoordinatorOption {
	return func(c *coordConfig) { c.workerURLs = append(c.workerURLs, urls...) }
}

// CoordinatorShardSpecs caps specs per shard (default DefaultShardSpecs).
func CoordinatorShardSpecs(n int) CoordinatorOption {
	return func(c *coordConfig) { c.shardSpecs = n }
}

// CoordinatorQueueCapacity bounds admitted-but-unfinished shards across
// all requests (default DefaultQueueCapacity). A request whose shards
// would overflow the bound is rejected with BusyError — except when the
// queue is empty, which always admits, so one oversized request cannot
// deadlock itself.
func CoordinatorQueueCapacity(n int) CoordinatorOption {
	return func(c *coordConfig) { c.queueCap = n }
}

// CoordinatorRetry sets the attempts per shard and the base backoff
// (doubled each retry). attempts includes the first try.
func CoordinatorRetry(attempts int, base time.Duration) CoordinatorOption {
	return func(c *coordConfig) { c.attempts, c.retryBase = attempts, base }
}

// CoordinatorShardTimeout bounds one shard round-trip (default
// DefaultShardTimeout); a timed-out attempt is retried like a 5xx.
func CoordinatorShardTimeout(d time.Duration) CoordinatorOption {
	return func(c *coordConfig) { c.shardTimeout = d }
}

// CoordinatorHealthInterval sets the background health-probe period
// (default DefaultHealthInterval; <= 0 disables the loop — probes then
// happen only at registration).
func CoordinatorHealthInterval(d time.Duration) CoordinatorOption {
	return func(c *coordConfig) { c.healthInterval = d }
}

// CoordinatorClient sets the HTTP client used for shards and probes.
func CoordinatorClient(cl *http.Client) CoordinatorOption {
	return func(c *coordConfig) { c.client = cl }
}

// CoordinatorLogger emits structured dispatch logs (sweep admitted,
// shard dispatched/retried/failed) to log. The sweep and shard fields
// carry the span IDs exported at /api/v1/spans. Nil (the default) is
// silent.
func CoordinatorLogger(log *slog.Logger) CoordinatorOption {
	return func(c *coordConfig) { c.logger = log }
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	url         string
	sem         chan struct{} // in-flight shard tokens
	healthy     atomic.Bool
	inFlight    atomic.Int64
	shardsDone  atomic.Uint64
	shardErrors atomic.Uint64
}

type fpEntry struct {
	fp  string
	err error
}

// Coordinator fans distributed sweeps out to a worker fleet. It is an
// http.Handler:
//
//	GET  /healthz               liveness
//	GET  /api/v1/status         CoordinatorStatus
//	POST /api/v1/workers        RegisterRequest -> RegisterResponse
//	POST /api/v1/sweep          SweepRequest -> SweepResponse (merged)
//	POST /api/v1/sweep/stream   SweepRequest -> SSE "results" events + "done"
type Coordinator struct {
	mux *http.ServeMux
	lib *consensus.Library
	// store is the content-addressed result store: completed summaries
	// under their content fingerprint (consensus.Session.Fingerprint),
	// which is process-independent, so any worker's result lands under
	// the key the coordinator computed at submission and a re-submitted
	// spec is a lookup, not a recompute.
	store  *consensus.SweepCache
	client *http.Client

	shardSpecs     int
	queueCap       int
	attempts       int
	retryBase      time.Duration
	shardTimeout   time.Duration
	healthInterval time.Duration

	mu       sync.Mutex
	workers  []*workerState
	admitted int // shards admitted and not yet finished

	fpMu   sync.Mutex
	fpMemo map[[sha256.Size]byte]fpEntry

	// reg/met are the single source of truth for the coordinator's
	// accounting: Status() reads these instruments back, so the
	// /api/v1/status JSON and the /metrics exposition cannot drift.
	reg    *obs.Registry
	met    *coordMetrics
	tracer *obs.Tracer
	log    *slog.Logger

	stop      chan struct{}
	closeOnce sync.Once
}

// NewCoordinator builds a coordinator. Call Close when done to stop the
// health loop.
func NewCoordinator(opts ...CoordinatorOption) *Coordinator {
	cfg := coordConfig{
		shardSpecs:     DefaultShardSpecs,
		queueCap:       DefaultQueueCapacity,
		attempts:       DefaultShardAttempts,
		retryBase:      DefaultRetryBase,
		shardTimeout:   DefaultShardTimeout,
		healthInterval: DefaultHealthInterval,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.client == nil {
		cfg.client = &http.Client{}
	}
	if cfg.shardSpecs < 1 {
		cfg.shardSpecs = 1
	}
	if cfg.queueCap < 1 {
		cfg.queueCap = 1
	}
	if cfg.attempts < 1 {
		cfg.attempts = 1
	}
	reg := obs.NewRegistry()
	c := &Coordinator{
		lib:            cfg.lib,
		store:          consensus.NewSweepCacheSize(DefaultStoreCapacity),
		client:         cfg.client,
		shardSpecs:     cfg.shardSpecs,
		queueCap:       cfg.queueCap,
		attempts:       cfg.attempts,
		retryBase:      cfg.retryBase,
		shardTimeout:   cfg.shardTimeout,
		healthInterval: cfg.healthInterval,
		fpMemo:         make(map[[sha256.Size]byte]fpEntry),
		reg:            reg,
		met:            newCoordMetrics(reg),
		tracer:         obs.NewTracer(coordTracerCapacity),
		log:            cfg.logger,
		stop:           make(chan struct{}),
	}
	c.registerCoordGauges()
	for _, u := range cfg.workerURLs {
		c.AddWorker(u)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /api/v1/status", c.handleStatus)
	mux.HandleFunc("GET /api/v1/spans", c.handleSpans)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("POST /api/v1/workers", c.handleRegister)
	mux.HandleFunc("POST /api/v1/sweep", c.handleSweep)
	mux.HandleFunc("POST /api/v1/sweep/stream", c.handleSweepStream)
	c.mux = mux
	if c.healthInterval > 0 {
		go c.healthLoop()
	}
	return c
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Close stops the background health loop. In-flight sweeps finish.
func (c *Coordinator) Close() { c.closeOnce.Do(func() { close(c.stop) }) }

// Registry exposes the coordinator's always-on metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Tracer exposes the coordinator's span ring (also served at
// GET /api/v1/spans).
func (c *Coordinator) Tracer() *obs.Tracer { return c.tracer }

// AddWorker registers a worker base URL (idempotent) and probes it
// synchronously, returning its health. A new URL is refused once the
// fleet holds MaxWorkers; a registered one is re-probed.
func (c *Coordinator) AddWorker(rawURL string) (bool, error) {
	u, err := url.Parse(rawURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return false, fmt.Errorf("distributed: worker URL must be absolute http(s): %q", rawURL)
	}
	clean := strings.TrimRight(u.String(), "/")
	c.mu.Lock()
	for _, w := range c.workers {
		if w.url == clean {
			c.mu.Unlock()
			return c.probe(w), nil
		}
	}
	if len(c.workers) >= MaxWorkers {
		c.mu.Unlock()
		return false, fmt.Errorf("distributed: worker fleet is full (%d workers); %q not registered", MaxWorkers, clean)
	}
	ws := &workerState{url: clean, sem: make(chan struct{}, DefaultWorkerInflight)}
	c.workers = append(c.workers, ws)
	c.mu.Unlock()
	return c.probe(ws), nil
}

// WorkerCount returns the registered worker count.
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

func (c *Coordinator) probe(w *workerState) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err == nil {
		if resp, rerr := c.client.Do(req); rerr == nil {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	w.healthy.Store(ok)
	return ok
}

func (c *Coordinator) healthLoop() {
	t := time.NewTicker(c.healthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			ws := append([]*workerState(nil), c.workers...)
			c.mu.Unlock()
			for _, w := range ws {
				c.probe(w)
			}
		}
	}
}

// Status snapshots the coordinator's accounting. Every number is read
// back from the obs registry's instruments — the same instruments the
// Prometheus exposition scrapes — so the two surfaces agree by
// construction.
func (c *Coordinator) Status() CoordinatorStatus {
	c.mu.Lock()
	ws := append([]*workerState(nil), c.workers...)
	depth := c.admitted
	c.mu.Unlock()
	st := CoordinatorStatus{
		Workers:               []WorkerInfo{},
		QueueDepth:            depth,
		QueueCapacity:         c.queueCap,
		Store:                 c.store.Counters(),
		Sweeps:                c.met.sweeps.Value(),
		SpecsServed:           c.met.specsServed.Value(),
		SpecsFromStore:        c.met.specsFromStore.Value(),
		SpecsComputed:         c.met.specsComputed.Value(),
		SpecsFailed:           c.met.specsFailed.Value(),
		ShardsDispatched:      c.met.shardsDispatched.Value(),
		ShardRetries:          c.met.shardRetries.Value(),
		ShardFailures:         c.met.shardFailures.Value(),
		Rejected:              c.met.rejected.Value(),
		FingerprintMismatches: c.met.fpMismatches.Value(),
	}
	st.StoreHitRate = st.Store.HitRate()
	for _, w := range ws {
		inf := int(w.inFlight.Load())
		st.InFlight += inf
		st.Workers = append(st.Workers, WorkerInfo{
			URL:         w.url,
			Healthy:     w.healthy.Load(),
			InFlight:    inf,
			ShardsDone:  w.shardsDone.Load(),
			ShardErrors: w.shardErrors.Load(),
		})
	}
	return st
}

// fingerprint computes (and memoizes) the content fingerprint of one
// spec. An empty fingerprint with nil error means the spec resolves but
// is not content-addressable; it is computed but never stored. It is
// safe for concurrent use: two goroutines may resolve equal specs at
// once, and both store the same content hash.
func (c *Coordinator) fingerprint(spec consensus.RunSpec) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	k := sha256.Sum256(raw)
	c.fpMu.Lock()
	if e, ok := c.fpMemo[k]; ok {
		c.fpMu.Unlock()
		return e.fp, e.err
	}
	c.fpMu.Unlock()
	var opts []consensus.Option
	if c.lib != nil {
		opts = append(opts, consensus.WithLibrary(c.lib))
	}
	fp, ferr := consensus.SpecFingerprint(spec, opts...)
	c.fpMu.Lock()
	if len(c.fpMemo) >= fpMemoCap {
		c.fpMemo = make(map[[sha256.Size]byte]fpEntry, fpMemoCap)
	}
	c.fpMemo[k] = fpEntry{fp: fp, err: ferr}
	c.fpMu.Unlock()
	return fp, ferr
}

// pending is one spec awaiting shard dispatch.
type pending struct {
	index int
	spec  consensus.RunSpec
	fp    string // content fingerprint; "" for non-addressable specs
	key   string // routing key, never ""
}

// shard is the coordinator's unit of dispatch, retry, and rerouting.
type shard struct {
	id      string
	key     string // routing key of the first spec
	indices []int
	specs   []consensus.RunSpec
	fps     []string
	workers int
}

// scoreWorker is the rendezvous (highest-random-weight) score of a
// worker for a routing key: every coordinator ranks workers for a given
// key identically, so equal fingerprints land on the same worker —
// whose local sweep cache then serves repeats — and removing a worker
// only remaps the keys it owned.
func scoreWorker(workerURL, key string) uint64 {
	h := sha256.Sum256([]byte(workerURL + "\x00" + key))
	return binary.BigEndian.Uint64(h[:8])
}

// rankedFor snapshots the fleet sorted by descending rendezvous score.
func (c *Coordinator) rankedFor(key string) []*workerState {
	c.mu.Lock()
	ws := append([]*workerState(nil), c.workers...)
	c.mu.Unlock()
	sort.Slice(ws, func(i, j int) bool {
		si, sj := scoreWorker(ws[i].url, key), scoreWorker(ws[j].url, key)
		if si != sj {
			return si > sj
		}
		return ws[i].url < ws[j].url
	})
	return ws
}

// buildShards groups pending specs by preferred worker and chunks each
// group into shards of at most shardSpecs.
func (c *Coordinator) buildShards(pend []pending, workers int) []*shard {
	if len(pend) == 0 {
		return nil
	}
	groups := make(map[string][]pending)
	var order []string
	for _, p := range pend {
		ranked := c.rankedFor(p.key)
		pref := ""
		if len(ranked) > 0 {
			pref = ranked[0].url
			for _, w := range ranked {
				if w.healthy.Load() {
					pref = w.url
					break
				}
			}
		}
		if _, ok := groups[pref]; !ok {
			order = append(order, pref)
		}
		groups[pref] = append(groups[pref], p)
	}
	var shards []*shard
	for _, u := range order {
		g := groups[u]
		for len(g) > 0 {
			n := min(c.shardSpecs, len(g))
			chunk := g[:n]
			g = g[n:]
			sh := &shard{key: chunk[0].key, workers: workers}
			h := sha256.New()
			for _, p := range chunk {
				sh.indices = append(sh.indices, p.index)
				sh.specs = append(sh.specs, p.spec)
				sh.fps = append(sh.fps, p.fp)
				h.Write([]byte(p.key))
				h.Write([]byte{0})
			}
			sh.id = hex.EncodeToString(h.Sum(nil))[:16]
			shards = append(shards, sh)
		}
	}
	return shards
}

// runSweep executes one distributed sweep. emit, when non-nil, receives
// partial results as they land (the store hits and resolution errors
// first, then each shard as it completes); an emit error cancels
// dispatch. Admission control runs before the first emit, so BusyError
// and validation errors can still become plain HTTP status codes.
func (c *Coordinator) runSweep(ctx context.Context, req SweepRequest, emit func(ResultsEvent) error) (*SweepResponse, error) {
	start := time.Now()
	if len(req.Specs) == 0 {
		return nil, fmt.Errorf("distributed: sweep needs at least one spec")
	}
	if len(req.Specs) > MaxSweepSpecs {
		return nil, fmt.Errorf("distributed: sweep carries %d specs, cap is %d", len(req.Specs), MaxSweepSpecs)
	}
	for _, spec := range req.Specs {
		if err := consensus.CheckServedRounds(spec.Rounds); err != nil {
			return nil, err
		}
	}

	// Resolve and fingerprint every spec on up to GOMAXPROCS goroutines,
	// handing out no spec once the request's context is done: a client
	// that has gone away gets nothing admitted, dispatched or stored.
	fps := make([]string, len(req.Specs))
	errs := make([]error, len(req.Specs))
	parallel.For(runtime.GOMAXPROCS(0), len(req.Specs), func(i int) {
		if ctx.Err() == nil {
			fps[i], errs[i] = c.fingerprint(req.Specs[i])
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Serve what the store already has, in spec order.
	results := make([]consensus.SweepResult, len(req.Specs))
	var initial []consensus.SweepResult
	var toCompute []pending
	storeHits, resolveErrs := 0, 0
	for i, spec := range req.Specs {
		fp, err := fps[i], errs[i]
		if err != nil {
			results[i] = consensus.SweepResult{Index: i, Spec: spec, Err: err.Error()}
			initial = append(initial, results[i])
			resolveErrs++
			continue
		}
		if fp != "" {
			if sum, ok := c.store.Lookup(fp); ok {
				s := sum
				results[i] = consensus.SweepResult{Index: i, Spec: spec, Fingerprint: fp, Cached: true, Summary: &s}
				initial = append(initial, results[i])
				storeHits++
				continue
			}
		}
		key := fp
		if key == "" {
			h := sha256.Sum256(append([]byte("spec:"), []byte(fmt.Sprintf("%+v", spec))...))
			key = "spec:" + hex.EncodeToString(h[:])
		}
		toCompute = append(toCompute, pending{index: i, spec: spec, fp: fp, key: key})
	}

	shards := c.buildShards(toCompute, req.Workers)
	if len(shards) > 0 && c.WorkerCount() == 0 {
		return nil, errNoWorkers
	}

	// Backpressure: admit all shards or none. An empty queue always
	// admits, so one oversized request cannot wedge itself.
	c.mu.Lock()
	if len(shards) > 0 && c.admitted > 0 && c.admitted+len(shards) > c.queueCap {
		depth := c.admitted
		c.mu.Unlock()
		c.met.rejected.Inc()
		if c.log != nil {
			c.log.Warn("sweep rejected by backpressure",
				"specs", len(req.Specs), "shards", len(shards), "queue_depth", depth)
		}
		return nil, &BusyError{RetryAfter: time.Second}
	}
	c.admitted += len(shards)
	c.met.queueDepth.Set(float64(c.admitted))
	c.mu.Unlock()

	c.met.sweeps.Inc()
	c.met.specsServed.Add(uint64(len(req.Specs)))
	c.met.specsFromStore.Add(uint64(storeHits))
	c.met.specsFailed.Add(uint64(resolveErrs))

	sweepSpan := c.tracer.Begin("sweep", 0,
		obs.Attr{Key: "specs", Value: strconv.Itoa(len(req.Specs))},
		obs.Attr{Key: "shards", Value: strconv.Itoa(len(shards))},
		obs.Attr{Key: "store_hits", Value: strconv.Itoa(storeHits)})
	defer c.tracer.End(sweepSpan)
	if c.log != nil {
		c.log.Info("sweep admitted", "sweep", uint64(sweepSpan),
			"specs", len(req.Specs), "shards", len(shards),
			"store_hits", storeHits, "resolve_errors", resolveErrs)
	}

	dispatchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var emitMu sync.Mutex
	emitFailed := false
	send := func(ev ResultsEvent) {
		if emit == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		if emitFailed {
			return
		}
		if err := emit(ev); err != nil {
			emitFailed = true
			cancel()
		}
	}
	if len(initial) > 0 {
		send(ResultsEvent{Results: initial})
	}

	var wg sync.WaitGroup
	var resMu sync.Mutex
	for _, sh := range shards {
		// The shard span opens at admission, on the sweep goroutine, so
		// queue wait is inside it; it closes after the shard's results
		// are merged and emitted.
		span := c.tracer.Begin("shard", sweepSpan,
			obs.Attr{Key: "shard", Value: sh.id},
			obs.Attr{Key: "specs", Value: strconv.Itoa(len(sh.specs))})
		wg.Add(1)
		go func(sh *shard, span obs.SpanID) {
			defer wg.Done()
			defer func() {
				c.mu.Lock()
				c.admitted--
				c.met.queueDepth.Set(float64(c.admitted))
				c.mu.Unlock()
			}()
			defer c.tracer.End(span)
			shardStart := time.Now()
			out, err := c.runShard(dispatchCtx, sh, span)
			c.met.shardSeconds.Observe(time.Since(shardStart).Seconds())
			ev := make([]consensus.SweepResult, 0, len(sh.specs))
			if err != nil {
				c.met.shardFailures.Inc()
				c.met.specsFailed.Add(uint64(len(sh.specs)))
				c.tracer.Annotate(span, obs.Attr{Key: "error", Value: err.Error()})
				if c.log != nil {
					c.log.Error("shard failed", "sweep", uint64(sweepSpan),
						"shard", sh.id, "span", uint64(span), "err", err)
				}
				for j, idx := range sh.indices {
					ev = append(ev, consensus.SweepResult{
						Index: idx, Spec: sh.specs[j], Fingerprint: sh.fps[j], Err: err.Error(),
					})
				}
			} else {
				for j, r := range out {
					if sh.fps[j] != "" && r.Summary != nil {
						if r.Fingerprint == sh.fps[j] {
							c.store.Insert(sh.fps[j], *r.Summary)
						} else {
							c.met.fpMismatches.Inc()
						}
					}
					if r.Err != "" {
						c.met.specsFailed.Inc()
					} else {
						c.met.specsComputed.Inc()
					}
					ev = append(ev, consensus.SweepResult{
						Index: sh.indices[j], Spec: sh.specs[j], Fingerprint: r.Fingerprint,
						Cached: r.Cached, Summary: r.Summary, Err: r.Err,
					})
				}
			}
			resMu.Lock()
			for _, r := range ev {
				results[r.Index] = r
			}
			resMu.Unlock()
			send(ResultsEvent{Results: ev})
		}(sh, span)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	emitMu.Lock()
	failed := emitFailed
	emitMu.Unlock()
	if failed {
		return nil, fmt.Errorf("distributed: client went away mid-stream")
	}

	stats := SweepStats{
		Specs:     len(req.Specs),
		StoreHits: storeHits,
		Shards:    len(shards),
		ElapsedMS: time.Since(start).Milliseconds(),
	}
	for i := range results {
		if results[i].Err != "" {
			stats.Errors++
		}
	}
	stats.Computed = len(req.Specs) - storeHits - stats.Errors
	return &SweepResponse{Results: results, Stats: stats}, nil
}

// runShard dispatches one shard with retry: rendezvous-preferred worker
// first, then the next-ranked healthy worker on failure, exponential
// backoff between attempts. Network errors mark the worker unhealthy;
// 4xx responses are terminal (re-sending the same bytes elsewhere
// cannot help). Each attempt annotates the shard's span with the
// worker it targeted.
func (c *Coordinator) runShard(ctx context.Context, sh *shard, span obs.SpanID) ([]ShardResult, error) {
	c.met.shardsDispatched.Inc()
	var lastErr error
	for attempt := 1; attempt <= c.attempts; attempt++ {
		if attempt > 1 {
			c.met.shardRetries.Inc()
			if err := sleepCtx(ctx, c.retryBase<<(attempt-2)); err != nil {
				return nil, err
			}
		}
		ranked := c.rankedFor(sh.key)
		if len(ranked) == 0 {
			return nil, errNoWorkers
		}
		var cands []*workerState
		for _, w := range ranked {
			if w.healthy.Load() {
				cands = append(cands, w)
			}
		}
		if len(cands) == 0 {
			cands = ranked
		}
		target := cands[(attempt-1)%len(cands)]
		if target != ranked[0] {
			c.met.shardReroutes.Inc()
		}
		c.tracer.Annotate(span,
			obs.Attr{Key: "attempt." + strconv.Itoa(attempt), Value: target.url})
		if c.log != nil {
			c.log.Info("shard dispatched", "shard", sh.id, "span", uint64(span),
				"attempt", attempt, "worker", target.url)
		}
		out, retryable, err := c.postShard(ctx, target, sh)
		if err == nil {
			target.shardsDone.Add(1)
			return out, nil
		}
		target.shardErrors.Add(1)
		lastErr = err
		if c.log != nil {
			c.log.Warn("shard attempt failed", "shard", sh.id, "span", uint64(span),
				"attempt", attempt, "worker", target.url, "retryable", retryable, "err", err)
		}
		if !retryable {
			break
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// postShard performs one shard round-trip against one worker under its
// in-flight cap. retryable reports whether another worker (or another
// attempt) could still serve the shard. A response is accepted only
// with one result per shard spec, each carrying a summary or an error,
// and is read no further than the request's length plus
// shardResultBytes per spec.
func (c *Coordinator) postShard(ctx context.Context, w *workerState, sh *shard) (res []ShardResult, retryable bool, err error) {
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	w.inFlight.Add(1)
	defer func() {
		w.inFlight.Add(-1)
		<-w.sem
	}()

	body, err := json.Marshal(ShardRequest{Shard: sh.id, Specs: sh.specs, Workers: sh.workers})
	if err != nil {
		return nil, false, err
	}
	rctx, cancel := context.WithTimeout(ctx, c.shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.url+"/api/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		w.healthy.Store(false)
		return nil, true, fmt.Errorf("distributed: worker %s: %v", w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := resp.Status
		var eb httpjson.ErrorBody
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb); derr == nil && eb.Error != "" {
			msg = eb.Error
		}
		return nil, resp.StatusCode >= 500, fmt.Errorf("distributed: worker %s: %s", w.url, msg)
	}
	limit := int64(len(body)) + shardResultBytes*int64(len(sh.specs))
	lr := &io.LimitedReader{R: resp.Body, N: limit + 1}
	var sr ShardResponse
	err = json.NewDecoder(lr).Decode(&sr)
	if lr.N == 0 {
		return nil, true, fmt.Errorf("distributed: worker %s: shard response exceeds its %d-byte bound", w.url, limit)
	}
	if err != nil {
		return nil, true, fmt.Errorf("distributed: worker %s: bad shard response: %v", w.url, err)
	}
	if len(sr.Results) != len(sh.specs) {
		return nil, true, fmt.Errorf("distributed: worker %s: shard returned %d results for %d specs",
			w.url, len(sr.Results), len(sh.specs))
	}
	for j, r := range sr.Results {
		if (r.Summary == nil) == (r.Err == "") {
			return nil, true, fmt.Errorf("distributed: worker %s: shard result %d carries neither or both of a summary and an error",
				w.url, j)
		}
	}
	return sr.Results, false, nil
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := httpjson.Decode(w, r, &req); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := c.runSweep(r.Context(), req, nil)
	if err != nil {
		c.writeSweepError(w, err)
		return
	}
	httpjson.Write(w, http.StatusOK, resp)
}

func (c *Coordinator) writeSweepError(w http.ResponseWriter, err error) {
	var busy *BusyError
	switch {
	case errors.As(err, &busy):
		secs := int((busy.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		httpjson.WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errNoWorkers):
		httpjson.WriteError(w, http.StatusServiceUnavailable, err)
	default:
		httpjson.WriteError(w, httpjson.StatusOf(err), err)
	}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, http.StatusOK, c.Status())
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := httpjson.Decode(w, r, &req); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	healthy, err := c.AddWorker(req.URL)
	if err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err)
		return
	}
	httpjson.Write(w, http.StatusOK, RegisterResponse{
		URL:     strings.TrimRight(req.URL, "/"),
		Healthy: healthy,
		Workers: c.WorkerCount(),
	})
}
