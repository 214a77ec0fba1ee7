// Command reprod serves the public consensus facade as a long-lived JSON
// query server: runs, sweeps, solvability and valency analysis,
// asynchronous crash-fault simulations, and the paper-reproduction
// experiments, with per-query timeouts and one result cache, the sweep
// cache, which memoizes swept runs by fingerprint. It also hosts both
// halves of the distributed sweep service (package
// repro/consensus/distributed): -worker adds the shard-execution
// endpoint, -coordinator serves the fan-out side instead.
//
// Usage:
//
//	reprod                          serve on :8080
//	reprod -addr 127.0.0.1:9090     choose the listen address
//	reprod -query-timeout 10s       bound each query's computation
//	reprod -drain-timeout 10s       shutdown drain budget (then in-flight
//	                                queries are context-cancelled)
//	reprod -debug-addr :6060        also serve net/http/pprof on a second
//	                                listener (off unless set)
//
//	reprod -worker                  serve the worker surface (adds POST /api/v1/shard)
//	reprod -worker -announce URL    ...and register with the coordinator at URL
//	reprod -coordinator -workers http://h1:8081,http://h2:8081
//	                                serve the coordinator, pinning two workers
//
// Endpoints (see packages repro/consensus and repro/consensus/distributed
// for the payloads):
//
//	GET  /healthz
//	GET  /metrics                 (Prometheus text, every mode)
//	GET  /api/v1/status
//	GET  /api/v1/registry
//	POST /api/v1/run
//	POST /api/v1/sweep
//	POST /api/v1/shard            (-worker)
//	POST /api/v1/sweep/stream     (-coordinator, SSE)
//	POST /api/v1/workers          (-coordinator)
//	GET  /api/v1/solvability?model=SPEC
//	POST /api/v1/valency
//	POST /api/v1/decision
//	POST /api/v1/async
//	POST /api/v1/scenario
//	GET  /api/v1/experiments
//	POST /api/v1/experiment
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/consensus"
	"repro/consensus/distributed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reprod:", err)
		os.Exit(1)
	}
}

// newServer builds the server exactly as main serves it; the handler
// tests drive it directly.
func newServer(queryTimeout time.Duration) *consensus.Server {
	return consensus.NewServer(consensus.ServerTimeout(queryTimeout))
}

// cacheKVs lists a result cache's counters as key=value pairs for the
// startup and shutdown log lines.
func cacheKVs(name string, c consensus.SweepCacheCounters) []any {
	return []any{"cache", name,
		"entries", c.Entries, "capacity", c.Capacity,
		"hits", c.Hits, "misses", c.Misses,
		"evictions", c.Evictions, "hit_rate", c.HitRate()}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address")
	queryTimeout := fs.Duration("query-timeout", 30*time.Second, "per-query computation budget")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second,
		"shutdown drain budget; past it in-flight queries are context-cancelled")
	debugAddr := fs.String("debug-addr", "",
		"serve net/http/pprof on this second listen address (disabled when empty)")

	worker := fs.Bool("worker", false, "serve the distributed worker surface (adds POST /api/v1/shard)")
	announce := fs.String("announce", "", "worker: coordinator base URL to register with at startup")
	selfURL := fs.String("self", "", "worker: own base URL to announce (default derived from -addr)")

	coordinator := fs.Bool("coordinator", false, "serve the distributed coordinator instead of the query server")
	workerList := fs.String("workers", "", "coordinator: comma-separated worker base URLs to pin")
	shardSpecs := fs.Int("shard-specs", distributed.DefaultShardSpecs, "coordinator: specs per shard")
	queueCap := fs.Int("queue-cap", distributed.DefaultQueueCapacity,
		"coordinator: admitted-shard queue bound (full queue answers 429)")
	shardRetries := fs.Int("shard-retries", distributed.DefaultShardAttempts,
		"coordinator: attempts per shard (reroutes across workers)")

	if err := fs.Parse(args); err != nil {
		return err
	}
	if *worker && *coordinator {
		return fmt.Errorf("-worker and -coordinator are mutually exclusive")
	}

	// Structured logger for the daemon's own reporting; the coordinator
	// shares it, so its dispatch logs carry the same stream and format.
	logger := slog.New(slog.NewTextHandler(out, nil))

	// Build the mode's handler and its startup/shutdown reporting.
	// counters snapshots the mode's result cache for the startup and
	// shutdown log lines.
	var (
		handler  http.Handler
		mode     string
		counters func() []any
	)
	switch {
	case *coordinator:
		var urls []string
		for _, u := range strings.Split(*workerList, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		coord := distributed.NewCoordinator(
			distributed.CoordinatorWorkers(urls...),
			distributed.CoordinatorShardSpecs(*shardSpecs),
			distributed.CoordinatorQueueCapacity(*queueCap),
			distributed.CoordinatorRetry(*shardRetries, distributed.DefaultRetryBase),
			distributed.CoordinatorShardTimeout(*queryTimeout),
			distributed.CoordinatorLogger(logger),
		)
		defer coord.Close()
		handler = coord
		mode = fmt.Sprintf("coordinator (%d workers pinned, shard specs %d, queue cap %d)",
			coord.WorkerCount(), *shardSpecs, *queueCap)
		counters = func() []any { return cacheKVs("result_store", coord.Status().Store) }
	case *worker:
		workerSide := distributed.NewWorker(distributed.WorkerTimeout(*queryTimeout))
		handler = workerSide
		mode = "worker"
		counters = func() []any { return cacheKVs("sweep", workerSide.SweepCacheCounters()) }
	default:
		qs := newServer(*queryTimeout)
		handler = qs
		mode = "server"
		counters = func() []any { return cacheKVs("sweep", qs.SweepCacheCounters()) }
	}

	// Every request context derives from baseCtx so an expired drain can
	// cancel whatever is still computing.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("serving", "mode", mode, "addr", *addr,
		"query_timeout", *queryTimeout)
	logger.Info("cache counters", append([]any{"phase", "startup"}, counters()...)...)

	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		defer debugSrv.Close()
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("debug listener serving pprof", "addr", *debugAddr)
	}

	if *worker && *announce != "" {
		self := *selfURL
		if self == "" {
			self = deriveSelfURL(*addr)
		}
		go func() {
			if err := announceWorker(ctx, *announce, self); err != nil {
				logger.Error("announce failed", "coordinator", *announce, "err", err)
			} else {
				logger.Info("registered with coordinator", "self", self, "coordinator", *announce)
			}
		}()
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		// Drain budget spent: cancel in-flight query contexts, then
		// force-close the remaining connections.
		cancelBase()
		_ = srv.Close()
		logger.Warn("drain timed out, in-flight queries cancelled", "drain_timeout", *drainTimeout)
		return nil
	}
	logger.Info("cache counters", append([]any{"phase", "shutdown"}, counters()...)...)
	logger.Info("shut down")
	return nil
}

// deriveSelfURL guesses the worker's announceable URL from its listen
// address; -self overrides when the guess is wrong (e.g. multi-host).
func deriveSelfURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// announceWorker registers self with the coordinator, retrying briefly
// so worker-before-coordinator startup order still converges.
func announceWorker(ctx context.Context, coordURL, self string) error {
	body, err := json.Marshal(distributed.RegisterRequest{URL: self})
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(time.Duration(attempt) * 500 * time.Millisecond)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost,
			strings.TrimRight(coordURL, "/")+"/api/v1/workers", bytes.NewReader(body))
		if rerr != nil {
			return rerr
		}
		req.Header.Set("Content-Type", "application/json")
		resp, rerr := http.DefaultClient.Do(req)
		if rerr != nil {
			lastErr = rerr
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("coordinator answered %s", resp.Status)
	}
	return lastErr
}
