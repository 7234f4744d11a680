package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"qav/internal/engine"
	"qav/internal/limits"
	"qav/internal/obs"
	"qav/internal/router"
	"qav/internal/server"
)

// replicas is the cluster size: enough for affinity routing to spread
// keys and for a replica's cache to be a third of the fleet's.
const replicas = 3

// cluster is the serving stack under test, booted in one process:
// engine-backed qavd services behind one qavrouter, joined by the
// router's in-process HandlerTransport (no sockets).
type cluster struct {
	engines []*engine.Engine
	// direct are the replicas' own handlers, for the set-up calls that
	// must reach every replica (the router does not replicate views).
	direct []http.Handler
	router *router.Router
	// front is Router.Handler(): what clients call.
	front   http.Handler
	metrics *obs.Registry
	// cacheDir is the persistent-tier directory, removed on close.
	cacheDir string
}

// qavdConfig is the engine configuration cmd/qavd builds from its flag
// defaults; cacheDir is the -cache-dir flag.
func qavdConfig(cacheDir string) engine.Config {
	return engine.Config{
		CacheSize:          1024,
		Timeout:            30 * time.Second,
		SlowQueryThreshold: 100 * time.Millisecond,
		SlowLogSize:        128,
		Gate: limits.New(limits.Config{
			MaxInFlight:  4 * runtime.GOMAXPROCS(0),
			MaxQueue:     128,
			QueueTimeout: time.Second,
		}),
		CacheDir: cacheDir,
	}
}

// routerConfig is the router configuration cmd/qavrouter builds from
// its flag defaults.
func routerConfig(urls []string, transport http.RoundTripper, metrics *obs.Registry) router.Config {
	return router.Config{
		Replicas:         urls,
		Policy:           "affinity",
		Seed:             1,
		ProbeInterval:    time.Second,
		AttemptTimeout:   10 * time.Second,
		Retries:          2,
		RetryBackoff:     25 * time.Millisecond,
		HedgeQuantile:    0.9,
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Second,
		Transport:        transport,
		Metrics:          metrics,
	}
}

// bootCluster starts the replicas and the router. persistRoot, when
// non-empty, gives every replica a fresh persistent-cache directory
// under it. traced installs the span shims at the router's transport
// and in front of every replica handler.
func bootCluster(persistRoot string, traced bool) (*cluster, error) {
	c := &cluster{metrics: obs.NewRegistry()}
	if persistRoot != "" {
		dir, err := os.MkdirTemp(persistRoot, "cache-")
		if err != nil {
			return nil, fmt.Errorf("cache dir: %w", err)
		}
		c.cacheDir = dir
	}
	fabric := router.NewHandlerTransport()
	urls := make([]string, replicas)
	for i := range urls {
		host := fmt.Sprintf("replica-%d", i)
		dir := ""
		if c.cacheDir != "" {
			dir = filepath.Join(c.cacheDir, host)
		}
		eng := engine.New(qavdConfig(dir))
		h := server.NewService(eng).Handler()
		c.engines = append(c.engines, eng)
		c.direct = append(c.direct, h)
		if traced {
			h = replicaShim{next: h}
		}
		fabric.Register(host, h)
		urls[i] = "http://" + host
	}
	var transport http.RoundTripper = fabric
	if traced {
		transport = attemptShim{next: fabric}
	}
	rt, err := router.New(routerConfig(urls, transport, c.metrics))
	if err != nil {
		return nil, errors.Join(fmt.Errorf("router: %w", err), c.close())
	}
	c.router = rt
	c.front = rt.Handler()
	return c, nil
}

// close stops the router's probers, flushes the replicas' persistent
// tiers and removes their directory.
func (c *cluster) close() error {
	if c.router != nil {
		c.router.Close()
	}
	var errs []error
	for _, eng := range c.engines {
		errs = append(errs, eng.Close())
	}
	if c.cacheDir != "" {
		errs = append(errs, os.RemoveAll(c.cacheDir))
	}
	return errors.Join(errs...)
}

// counters sums the program counters the harness reads over the
// replicas, plus the router's attempt count, by name: cache outcomes,
// persistent-tier writes, interner and plan-cache outcomes, admission
// sheds, and per-stage nanoseconds ("stage.<name>").
func (c *cluster) counters() map[string]int64 {
	r := make(map[string]int64)
	for _, eng := range c.engines {
		st := eng.Stats()
		r["hits"] += st.CacheHits
		r["warmHits"] += st.CacheWarmHits
		r["misses"] += st.CacheMisses
		r["dedups"] += st.CacheDedups
		r["persisted"] += st.Persisted
		r["persistDrops"] += st.PersistDrops
		r["internHits"] += st.InternHits
		r["internMisses"] += st.InternMisses
		r["planHits"] += st.PlanCacheHits
		r["planLookups"] += st.PlanCacheHits + st.PlanCacheMiss + st.PlanCacheDedup
		snap := eng.MetricsSnapshot()
		for name, s := range snap.Stages {
			r["stage."+name] += s.TotalNs
		}
		if snap.Gate != nil {
			r["shed"] += snap.Gate.Shed
		}
	}
	for name, ep := range c.metrics.Snapshot().Endpoints {
		if strings.HasPrefix(name, "replica:") {
			r["attempts"] += ep.Requests
		}
	}
	return r
}
