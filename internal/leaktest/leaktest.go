// Package leaktest is a minimal goroutine-leak detector for tests.
// Check records the goroutines alive when called and returns a
// function that, deferred, verifies that every goroutine started since
// has exited before the test ends.
//
// Goroutines are told apart by the IDs in a runtime.Stack dump, not
// counted: a goroutine that was already running at the snapshot and
// exits afterwards must not hide one that started later and stays
// parked. The verdict retries with backoff because goroutine teardown
// is asynchronous: a worker that has observed cancellation may not
// have returned by the time the test body does. Only a goroutine that
// stays alive after the retry budget is a leak. Tests using the helper
// should not run in parallel with tests that start long-lived
// goroutines of their own.
package leaktest

import (
	"bytes"
	"runtime"
	"strconv"
	"time"
)

// tb is the subset of testing.TB the helper needs; taking the
// interface keeps the package importable from non-test code (the
// chaos harness) without dragging testing into package APIs.
type tb interface {
	Helper()
	Errorf(format string, args ...any)
}

// Check records the goroutines alive now and returns a function to
// defer:
//
//	defer leaktest.Check(t)()
//
// The returned function polls for up to ~2s for every goroutine started
// after the snapshot to exit, then reports a test error carrying the
// stacks of those still alive.
func Check(t tb) func() {
	t.Helper()
	before := make(map[uint64]bool)
	for id := range goroutines() {
		before[id] = true
	}
	return func() {
		t.Helper()
		if leaked := settle(before); len(leaked) > 0 {
			var stacks []byte
			for _, st := range leaked {
				stacks = append(append(stacks, '\n'), st...)
			}
			t.Errorf("goroutine leak: %d goroutine(s) started during the test still alive after wait:%s", len(leaked), stacks)
		}
	}
}

// settle waits for every goroutine not in before to exit, returning
// the stacks of those still alive at the deadline.
func settle(before map[uint64]bool) [][]byte {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var leaked [][]byte
		for id, st := range goroutines() {
			if !before[id] {
				leaked = append(leaked, st)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutines returns the stack record of every goroutine, keyed by
// goroutine ID. Goroutine IDs are never reused, so an ID absent from an
// earlier snapshot names a goroutine started after it.
func goroutines() map[uint64][]byte {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[uint64][]byte)
	for _, rec := range bytes.Split(buf, []byte("\n\n")) {
		rest, ok := bytes.CutPrefix(rec, []byte("goroutine "))
		if !ok {
			continue
		}
		idText, _, _ := bytes.Cut(rest, []byte(" "))
		if id, err := strconv.ParseUint(string(idText), 10, 64); err == nil {
			out[id] = rec
		}
	}
	return out
}
