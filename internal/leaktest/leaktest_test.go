package leaktest

import (
	"testing"
	"time"
)

// recorder captures Errorf calls so the detector itself can be tested
// for both verdicts.
type recorder struct {
	failed bool
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.failed = true
}

func TestCheckPassesWhenBalanced(t *testing.T) {
	r := &recorder{}
	done := Check(r)
	ch := make(chan struct{})
	go func() { <-ch }()
	close(ch)
	done()
	if r.failed {
		t.Fatal("balanced goroutine reported as leak")
	}
}

func TestCheckCatchesLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the settle deadline")
	}
	r := &recorder{}
	done := Check(r)
	stop := make(chan struct{})
	go func() { <-stop }()
	done() // the goroutine is still parked: must report
	close(stop)
	if !r.failed {
		t.Fatal("parked goroutine not reported as leak")
	}
	time.Sleep(20 * time.Millisecond) // let it exit before other tests snapshot
}

// TestCheckCatchesLeakAfterAnExit: a goroutine running at the snapshot
// exits, and a new one starts and stays parked. The goroutine count is
// back where it was, but the new goroutine is still a leak.
func TestCheckCatchesLeakAfterAnExit(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the settle deadline")
	}
	exit := make(chan struct{})
	go func() { <-exit }()
	r := &recorder{}
	done := Check(r)
	close(exit)
	stop := make(chan struct{})
	go func() { <-stop }()
	done() // the old goroutine is gone, the new one still parked: must report
	close(stop)
	if !r.failed {
		t.Fatal("parked goroutine not reported as leak after another exited")
	}
	time.Sleep(20 * time.Millisecond) // let it exit before other tests snapshot
}
