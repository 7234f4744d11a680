package obs

import (
	"log"
	"sync"
	"sync/atomic"
	"time"
)

// A SlowLog is a bounded ring buffer of outlier requests: any computed
// rewriting slower than the configured threshold is recorded with its
// canonical query/view and per-stage time breakdown, so a slow request
// can be attributed to a pipeline phase after the fact without a
// profiler attached. A zero threshold disables recording.
type SlowLog struct {
	threshold atomic.Int64 // nanoseconds; 0 disables
	total     atomic.Int64 // entries ever recorded (ring may have dropped old ones)

	mu     sync.Mutex
	ring   []SlowEntry // guarded by mu
	next   int         // guarded by mu
	logger *log.Logger // guarded by mu
}

// A SlowEntry is one recorded outlier request. StageNs carries the
// span's per-stage totals in nanoseconds; their sum is at most
// DurationNs, since a request's stages never overlap.
type SlowEntry struct {
	Time       time.Time        `json:"time"`
	Op         string           `json:"op"`
	Query      string           `json:"query"`
	View       string           `json:"view,omitempty"`
	Schema     string           `json:"schema,omitempty"`
	Recursive  bool             `json:"recursive,omitempty"`
	DurationNs int64            `json:"duration_ns"`
	StageNs    map[string]int64 `json:"stage_ns,omitempty"`
	Err        string           `json:"error,omitempty"`
	// Stack is the goroutine stack captured when the request died to a
	// recovered panic; such entries are recorded regardless of the
	// latency threshold so the crash site is never lost.
	Stack string `json:"stack,omitempty"`
}

// NewSlowLog returns a slow-query log keeping the most recent capacity
// entries (minimum 1) for requests at or above threshold; threshold 0
// disables it.
func NewSlowLog(threshold time.Duration, capacity int) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	l := &SlowLog{ring: make([]SlowEntry, 0, capacity)}
	l.threshold.Store(int64(threshold))
	return l
}

// Threshold returns the current recording threshold; 0 means disabled.
func (l *SlowLog) Threshold() time.Duration {
	return time.Duration(l.threshold.Load())
}

// SetThreshold changes the recording threshold at runtime.
func (l *SlowLog) SetThreshold(d time.Duration) {
	l.threshold.Store(int64(d))
}

// SetLogger makes the slow log also print one line per recorded entry
// (nil disables printing, the default).
func (l *SlowLog) SetLogger(lg *log.Logger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.logger = lg
}

// Record appends e to the ring, evicting the oldest entry when full.
// The threshold check is the caller's: the engine compares the request
// duration against Threshold() before building an entry, so sub-
// threshold requests never pay for canonicalization.
func (l *SlowLog) Record(e SlowEntry) {
	l.total.Add(1)
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.next = (l.next + 1) % cap(l.ring)
	}
	lg := l.logger
	l.mu.Unlock()
	if lg != nil {
		lg.Printf("slow query: op=%s dur=%s query=%s view=%s stages=%v",
			e.Op, time.Duration(e.DurationNs), e.Query, e.View, e.StageNs)
	}
}

// SlowLogSnapshot is the /metrics and /v1/slowlog view of the log.
type SlowLogSnapshot struct {
	ThresholdNs int64       `json:"threshold_ns"`
	Total       int64       `json:"total"`
	Entries     []SlowEntry `json:"entries"`
}

// Snapshot returns the retained entries, newest first.
func (l *SlowLog) Snapshot() SlowLogSnapshot {
	snap := SlowLogSnapshot{
		ThresholdNs: l.threshold.Load(),
		Total:       l.total.Load(),
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ring)
	snap.Entries = make([]SlowEntry, 0, n)
	// The ring's logical order is oldest..newest starting at next (once
	// wrapped) or at 0 (while filling); emit newest first.
	for i := 0; i < n; i++ {
		idx := (l.next + n - 1 - i) % n
		snap.Entries = append(snap.Entries, l.ring[idx])
	}
	return snap
}
