package cache

import "sync"

// MemoEntryBytes is the fixed per-entry overhead a Memo adds to the
// size its size function reports: the map slot and headers.
const MemoEntryBytes = 64

// Memo is a concurrency-safe map from K to V bounded by a byte budget,
// for memoizing a pure function of an immutable input. Every entry is
// charged size(k, v) + MemoEntryBytes; when an insert would exceed the
// budget the whole map is dropped and refilled (a wholesale reset, the
// engine interner's policy), so there is no eviction order to maintain
// and losing an entry costs one recomputation, never a different
// answer. The budget counts only what size reports: memory a key or
// value merely references (a pointer key's target, say) is not charged.
type Memo[K comparable, V any] struct {
	budget int
	size   func(K, V) int

	mu      sync.Mutex
	entries map[K]V // guarded by mu
	bytes   int     // guarded by mu
}

// NewMemo returns an empty memo holding at most budget bytes as
// measured by size.
func NewMemo[K comparable, V any](budget int, size func(K, V) int) *Memo[K, V] {
	return &Memo[K, V]{budget: budget, size: size}
}

// Get returns the value memoized for k. Callers must not modify a
// shared value (a slice, say) that it returns.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.entries[k]
	return v, ok
}

// Put memoizes v for k, keeping the first value when k is already
// present. An entry larger than the whole budget is not stored.
func (m *Memo[K, V]) Put(k K, v V) {
	size := m.size(k, v) + MemoEntryBytes
	if size > m.budget {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok {
		return
	}
	if m.entries == nil || m.bytes+size > m.budget {
		m.entries = make(map[K]V)
		m.bytes = 0
	}
	m.entries[k] = v
	m.bytes += size
}
