// Package cache provides a concurrency-safe bounded LRU cache with
// singleflight deduplication, keyed by canonical request forms. The
// engine keeps two: rewriting results keyed by (query, view, schema)
// — mediators answer many queries against few views, and rewriting is
// pure, so caching it is free speedup (the semantic-caching direction
// the paper cites as [7]) — and compiled answer plans keyed by the
// canonical CR union, which are pure functions of the rewriting.
//
// An optional second tier (Persist) makes the rewrite cache survive
// restarts: cacheable successful values are appended asynchronously to
// a checksummed on-disk segment and replayed into a warm map on boot,
// so a restarted replica serves previously computed rewritings without
// recomputing them. See persist.go for the record format and the
// crash-recovery semantics.
package cache

import (
	"container/list"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"

	"qav/internal/fault"
	"qav/internal/guard"
	"qav/internal/names"
	"qav/internal/schema"
	"qav/internal/tpq"
)

// faultFlight fires in the singleflight leader just before it runs the
// computation (no-op unless a chaos plan arms it; see internal/fault).
var faultFlight = fault.Register(names.FaultCacheFlight)

// Cache is a bounded LRU of computation results with singleflight
// deduplication of in-flight computations. The zero value is not
// usable; call New or NewWithPolicy.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List               // front = most recently used; values are *entry[V]; guarded by mu
	byKey    map[string]*list.Element // guarded by mu
	inflight map[string]*flight[V]    // guarded by mu

	// volatile, when non-nil, marks successful values that must not be
	// cached — results that describe where a budget or deadline
	// happened to land rather than the key (e.g. partial rewritings).
	volatile func(V) bool

	// tier2, when non-nil, is the persistent warm tier: lookups that
	// miss the LRU consult it before computing, and cacheable
	// successful values are appended to it asynchronously. Attached
	// once before first use (AttachTier2) and detached by Close.
	tier2 *Persist[V] // guarded by mu

	// Disjoint lookup-outcome counters: a lookup is exactly one of a
	// completed-entry hit, a warm hit (served by the persistent tier,
	// decoded and promoted into the LRU), a miss (the caller becomes
	// the computing leader), or a dedup (a follower wait collapsed onto
	// an in-flight leader). Keeping dedups out of hits keeps the hit
	// rate honest: followers wait for a computation, they do not avoid
	// one.
	hits, warmHits, misses, dedups int64 // guarded by mu
}

type entry[V any] struct {
	key string
	res V
	err error
}

// flight is one in-progress computation; followers wait on done.
type flight[V any] struct {
	done chan struct{}
	res  V
	err  error
}

// New creates a cache holding up to capacity results (minimum 1).
func New[V any](capacity int) *Cache[V] {
	return NewWithPolicy[V](capacity, nil)
}

// NewWithPolicy creates a cache whose successful values are additionally
// filtered by volatile: values it reports true for are returned to the
// caller but never stored (see Cache.volatile). A nil volatile stores
// every successful value.
func NewWithPolicy[V any](capacity int, volatile func(V) bool) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
		volatile: volatile,
	}
}

// keyVersion tags the cache-key encoding. Keys now outlive the process
// (the persistent tier stores them verbatim in its segment file), so
// the encoding carries an explicit version: bumping it makes keys from
// an older format unreachable instead of silently aliased.
const keyVersion = "k1"

// Key derives the cache key for a rewriting request. The schema graph
// may be nil (schemaless); recursive selects the §5 algorithm.
//
// The encoding is injective: two fixed-width flag bytes (recursive,
// schema presence — nil schema and empty-string schema text must not
// collide) followed by each variable-length field prefixed with its
// decimal length. The previous separator-based encoding was not — a
// nil-schema recursive request keyed identically to a non-recursive
// request over a schema whose String() was "R".
func Key(q, v *tpq.Pattern, g *schema.Graph, recursive bool) string {
	qs, vs := q.Canonical(), v.Canonical()
	gs, schemaFlag := "", "-"
	if g != nil {
		gs, schemaFlag = g.String(), "S"
	}
	recFlag := "-"
	if recursive {
		recFlag = "R"
	}
	var b strings.Builder
	b.Grow(len(keyVersion) + 2 + len(qs) + len(vs) + len(gs) + 24)
	b.WriteString(keyVersion)
	b.WriteString(recFlag)
	b.WriteString(schemaFlag)
	for _, field := range [...]string{qs, vs, gs} {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(len(field)))
		b.WriteByte(':')
		b.WriteString(field)
	}
	return b.String()
}

// Get returns the cached result for key, if present in either tier.
// The error is the stored computation error and is meaningful only when
// ok is true. A value found only in the persistent warm tier is decoded
// outside the cache lock and promoted into the LRU.
func (c *Cache[V]) Get(key string) (res V, ok bool, err error) {
	c.mu.Lock()
	if el, found := c.byKey[key]; found {
		c.hits++
		c.order.MoveToFront(el)
		e := el.Value.(*entry[V])
		c.mu.Unlock()
		return e.res, true, e.err
	}
	t2 := c.tier2
	c.mu.Unlock()
	if t2 != nil {
		if v, found := t2.lookup(key); found {
			c.mu.Lock()
			c.warmHits++
			c.putLocked(key, v, nil)
			c.mu.Unlock()
			return v, true, nil
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	var zero V
	return zero, false, nil
}

// Put stores a result (or the error computing it produced) under key.
// Storing an error is deliberate negative caching: the computations
// cached here are pure functions of the key, so a deterministic
// failure (parse rejection, enumeration budget overrun) would fail
// identically on every retry. Error entries occupy ordinary LRU slots
// and age out like results; they are never pinned.
//
// Put enforces the same cacheable policy as GetOrCompute: context
// cancellation errors, transient errors, and volatile values (per the
// constructor policy) are silently dropped rather than stored — a
// direct Put must not smuggle in an entry the computing path would
// refuse. Successful values are also handed to the persistent tier,
// when one is attached.
func (c *Cache[V]) Put(key string, res V, err error) {
	if !c.cacheable(res, err) {
		return
	}
	c.mu.Lock()
	c.putLocked(key, res, err)
	t2 := c.tier2
	c.mu.Unlock()
	if t2 != nil && err == nil {
		t2.enqueue(key, res)
	}
}

func (c *Cache[V]) putLocked(key string, res V, err error) {
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*entry[V]).res = res
		el.Value.(*entry[V]).err = err
		return
	}
	c.byKey[key] = c.order.PushFront(&entry[V]{key: key, res: res, err: err})
	for c.order.Len() > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*entry[V]).key)
	}
}

// GetOrCompute returns the cached result for key or computes, stores
// and returns it. Concurrent callers for the same key are deduplicated
// singleflight-style: one leader runs compute, the others wait for its
// result (or their own ctx). Context cancellation errors are never
// cached, and followers whose leader was cancelled retry with their
// own context rather than inheriting the leader's failure.
//
// Deterministic computation errors are cached (see Put): the stored
// error is returned on subsequent hits until the entry ages out of the
// LRU. Counter policy: the leader's computation is a miss, a follower
// wait is a dedup (not a hit — no computation was avoided, only
// duplicated work), and only completed-entry lookups are hits. A
// follower that retries after a cancelled leader counts one dedup per
// wait it joins.
func (c *Cache[V]) GetOrCompute(ctx context.Context, key string, compute func() (V, error)) (V, error) {
	warmChecked := false
	for {
		c.mu.Lock()
		if el, ok := c.byKey[key]; ok {
			c.hits++
			c.order.MoveToFront(el)
			e := el.Value.(*entry[V])
			c.mu.Unlock()
			return e.res, e.err
		}
		if f, ok := c.inflight[key]; ok {
			c.dedups++ // deduplicated follower: no second computation started
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			case <-f.done:
			}
			if isContextErr(f.err) {
				continue // the leader was cancelled, not us: retry
			}
			return f.res, f.err
		}
		if t2 := c.tier2; t2 != nil && !warmChecked {
			c.mu.Unlock()
			warmChecked = true
			if v, found := t2.lookup(key); found {
				c.mu.Lock()
				c.warmHits++
				// A leader started concurrently may finish and store the
				// same value; both stores are of the same pure function
				// of the key, so last-write-wins is harmless.
				c.putLocked(key, v, nil)
				c.mu.Unlock()
				return v, nil
			}
			continue
		}
		c.misses++
		f := &flight[V]{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		c.runLeader(ctx, key, f, compute)
		return f.res, f.err
	}
}

// runLeader executes the singleflight computation with panic isolation:
// a panic inside compute becomes a typed ErrInternal for the leader AND
// every follower, and the deferred cleanup guarantees the flight is
// removed and its done channel closed on every path — a panicking
// leader must never strand followers on a channel nobody will close.
func (c *Cache[V]) runLeader(ctx context.Context, key string, f *flight[V], compute func() (V, error)) {
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		store := c.cacheable(f.res, f.err)
		if store {
			c.putLocked(key, f.res, f.err)
		}
		t2 := c.tier2
		c.mu.Unlock()
		if store && f.err == nil && t2 != nil {
			// Only successful values reach the persistent tier: error
			// entries (even the deterministic ones negative-cached in
			// memory) and volatile values are never written to disk.
			t2.enqueue(key, f.res)
		}
		close(f.done)
	}()
	defer guard.Recover(&f.err, "cache.singleflight")
	if err := faultFlight.Hit(ctx); err != nil {
		f.err = err
		return
	}
	f.res, f.err = compute()
}

// transient matches errors that mark themselves as one-off conditions
// (recovered panics, injected faults, load shedding). Declared locally
// so the cache needs no import of the packages producing them.
type transient interface{ Transient() bool }

// cacheable decides whether a flight's outcome may be stored. Context
// errors describe the request, transient errors describe a momentary
// condition, and volatile values (per the constructor policy) describe
// where one deadline happened to land — none are properties of the
// key, so caching any of them would serve a degraded answer to callers
// with healthy budgets.
func (c *Cache[V]) cacheable(res V, err error) bool {
	if err != nil {
		if isContextErr(err) {
			return false
		}
		var t transient
		if errors.As(err, &t) && t.Transient() {
			return false
		}
		return true
	}
	return c.volatile == nil || !c.volatile(res)
}

// isContextErr reports whether err stems from cancellation or a missed
// deadline — failures of the request, not of the computation, which
// must not poison the cache.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// AttachTier2 attaches the persistent warm tier. Call it once, after
// construction and before the cache is shared; the cache takes
// ownership and Close closes the tier.
func (c *Cache[V]) AttachTier2(p *Persist[V]) {
	c.mu.Lock()
	c.tier2 = p
	c.mu.Unlock()
}

// Close detaches and closes the persistent tier, flushing queued
// writes. A memory-only cache Closes as a no-op. The cache itself
// remains usable (memory-only) afterwards.
func (c *Cache[V]) Close() error {
	c.mu.Lock()
	t2 := c.tier2
	c.tier2 = nil
	c.mu.Unlock()
	if t2 == nil {
		return nil
	}
	return t2.Close()
}

// Stats returns the disjoint lookup-outcome counters: completed-entry
// hits, leader computations (misses), and follower waits deduplicated
// onto an in-flight leader. hits+misses+dedups+WarmHits equals the
// number of lookups.
func (c *Cache[V]) Stats() (hits, misses, dedups int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.dedups
}

// WarmHits returns the number of lookups served by the persistent warm
// tier (disjoint from the Stats counters).
func (c *Cache[V]) WarmHits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.warmHits
}

// Len returns the number of cached results.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
