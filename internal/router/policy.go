package router

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A policy ranks the replica set for one request: order returns
// replica indexes in preference order, and the proxy walks them until
// an attempt succeeds. Ranking the whole set (rather than picking one)
// is what makes failover free: the spill target when the top choice is
// open or saturated is simply the next index.
type policy interface {
	name() string
	order(key string, reps []*replica) []int
}

// roundRobin cycles through the replicas; each request starts one past
// the previous request's starting point.
type roundRobin struct{ next atomic.Uint64 }

func (p *roundRobin) name() string { return "roundrobin" }

func (p *roundRobin) order(key string, reps []*replica) []int {
	n := len(reps)
	start := int(p.next.Add(1)-1) % n
	out := make([]int, n)
	for i := range out {
		out[i] = (start + i) % n
	}
	return out
}

// affinity implements rendezvous (highest-random-weight) hashing on
// the canonical pattern key: every (replica, key) pair gets a hash
// score and the replicas are ranked by score, so each canonical query
// has one stable owner whose rewrite cache actually accumulates hits —
// and when the owner is open, draining or saturated, the proxy spills
// to the second-ranked replica, which is itself stable per key.
// Membership changes move only ~1/N of the keys (the regression test
// pins that property).
type affinity struct{}

func (a *affinity) name() string { return "affinity" }

func (a *affinity) order(key string, reps []*replica) []int {
	hk := fnv64a(key)
	out := make([]int, len(reps))
	score := make([]uint64, len(reps))
	for i, rep := range reps {
		out[i] = i
		// Mix the precomputed replica-name hash with the key hash;
		// splitmix64 scrambles the combination so nearby keys don't
		// produce correlated rankings.
		score[i] = splitmix64(rep.nameHash ^ hk)
	}
	sort.SliceStable(out, func(x, y int) bool {
		return score[out[x]] > score[out[y]]
	})
	return out
}

// fnv64a is the 64-bit FNV-1a hash.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality bijective mixer (same construction internal/fault uses
// for deterministic firing decisions).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a mutex-guarded SplitMix64 stream used for every jittered
// duration in the router (breaker cooldowns, retry backoff). Seeding
// it makes chaos runs reproducible: same seed, same jitter schedule.
type rng struct {
	mu sync.Mutex
	s  uint64
}

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)} }

func (r *rng) next() uint64 {
	r.mu.Lock()
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	r.mu.Unlock()
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jitter returns a duration uniformly in [d/2, d): full-jitter-style
// spreading that keeps the expected wait near 3d/4 while decorrelating
// concurrent waiters.
func (r *rng) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(r.next()%uint64(half))
}
