// Command qavd serves the QAV engine over HTTP: the mediator component
// of an information-integration deployment. See internal/server for the
// endpoints.
//
//	qavd -addr :8080 -rewrite-timeout 10s
//	curl -s localhost:8080/v1/rewrite -d '{"query":"//Trials[//Status]//Trial","view":"//Trials//Trial"}'
//	curl -s localhost:8080/metrics       # endpoint/stage/cache metrics
//	curl -s localhost:8080/v1/slowlog    # recent slow queries
//
// Besides the API the daemon serves operational surfaces: GET /metrics
// (JSON snapshot of per-endpoint request/status/latency metrics,
// pipeline stage timings, cache counters and the slow-query log),
// /debug/vars (the same snapshot under the "qav" expvar key) and
// /debug/pprof. Queries slower than -slow-query land in a bounded
// in-memory ring served by /v1/slowlog and are echoed to the process
// log.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests drain (bounded by -drain), new connections are refused, and
// cancelled request contexts stop any still-running enumerations.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"qav/internal/engine"
	"qav/internal/limits"
	"qav/internal/obs"
	"qav/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 1024, "rewrite cache capacity (entries)")
	rewriteTimeout := flag.Duration("rewrite-timeout", 30*time.Second, "per-request rewriting deadline (0 = none)")
	maxEmbeddings := flag.Int("max-embeddings", 0, "enumeration budget per request (0 = library default)")
	drain := flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
	slowQuery := flag.Duration("slow-query", 100*time.Millisecond, "slow-query log threshold (0 = disabled)")
	slowLogSize := flag.Int("slow-log-size", 128, "slow-query log ring capacity")
	maxInFlight := flag.Int("max-inflight", 4*runtime.GOMAXPROCS(0), "concurrent rewriting computations admitted (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 128, "computations waiting for an admission slot before shedding")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "longest a computation may wait for admission before shedding")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent rewrite-cache segment (empty = memory-only)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "periodic segment compaction interval (0 = never; requires -cache-dir)")
	flag.Parse()

	// Admission control in front of Engine compute: cache hits and
	// deduplicated followers bypass the gate; overflowing computations
	// shed with 429 + Retry-After instead of piling up goroutines.
	var gate *limits.Gate
	if *maxInFlight > 0 {
		gate = limits.New(limits.Config{
			MaxInFlight:  *maxInFlight,
			MaxQueue:     *maxQueue,
			QueueTimeout: *queueTimeout,
		})
	}

	eng := engine.New(engine.Config{
		CacheSize:          *cacheSize,
		Timeout:            *rewriteTimeout,
		MaxEmbeddings:      *maxEmbeddings,
		SlowQueryThreshold: *slowQuery,
		SlowLogSize:        *slowLogSize,
		Gate:               gate,
		CacheDir:           *cacheDir,
		SnapshotInterval:   *snapshotInterval,
	})
	eng.SlowLog().SetLogger(log.Default())
	if *cacheDir != "" {
		switch wb := eng.WarmBootInfo(); {
		case wb.Err != "":
			log.Printf("qavd: persistent cache disabled: %s", wb.Err)
		case wb.TruncatedBytes > 0:
			log.Printf("qavd: warm cache replayed %d entries from %s (truncated %d corrupt tail bytes)",
				wb.Replayed, *cacheDir, wb.TruncatedBytes)
		default:
			log.Printf("qavd: warm cache replayed %d entries from %s", wb.Replayed, *cacheDir)
		}
	}
	// The metrics snapshot is also published through expvar so any
	// expvar-aware scraper can read it from /debug/vars.
	obs.Publish("qav", func() any { return eng.MetricsSnapshot() })

	svc := server.NewService(eng)
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	// Profiling endpoints are wired explicitly (rather than importing
	// net/http/pprof for its DefaultServeMux side effect) so they exist
	// regardless of what the default mux holds.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("qavd listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		// Flip /healthz to 503 before the listener stops accepting: a
		// router probing health steers new work away while in-flight
		// requests drain normally.
		svc.StartDraining()
		log.Printf("qavd: signal received, draining for up to %v", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("qavd: forced shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("qavd: %v", err)
		}
		// Flush queued cache writes so the next boot replays them.
		if err := eng.Close(); err != nil {
			log.Printf("qavd: closing persistent cache: %v", err)
		}
		log.Printf("qavd: stopped")
	}
}
