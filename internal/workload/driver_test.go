package workload

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestWallClockStall: a client blocked inside an operation past the
// deadline is left behind once the grace has passed and counted as
// stalled, Run returns within the grace, and the other clients' operations
// still count.
func TestWallClockStall(t *testing.T) {
	const measure, grace = 50 * time.Millisecond, 200 * time.Millisecond
	block := make(chan struct{})
	defer close(block)
	d := NewDriver(NewWallClock(grace), Window{Measure: measure})
	d.Go(func() (int64, int64, error) { <-block; return 1, 0, nil }, nil)
	for range 3 {
		d.Go(func() (int64, int64, error) { time.Sleep(time.Millisecond); return 1, 0, nil }, nil)
	}
	start := time.Now()
	r := d.Run()
	if took := time.Since(start); took > measure+grace+time.Second {
		t.Errorf("Run took %v, want at most the %v window and the %v grace", took, measure, grace)
	}
	if r.Stalled != 1 || r.Errors != 0 || r.Ops == 0 || int64(r.Latency.Count()) != r.Ops {
		t.Fatalf("stalled=%d errors=%d ops=%d samples=%d, want 1 stalled and the other clients' ops",
			r.Stalled, r.Errors, r.Ops, r.Latency.Count())
	}
}

// TestDriverErrorStopsOneClient: an operation's error stops its client,
// not the run: the error is counted once and named with its client, the
// other client's operations count, and only the client that left cleanly
// runs its done.
func TestDriverErrorStopsOneClient(t *testing.T) {
	d := NewDriver(NewWallClock(time.Second), Window{Measure: 20 * time.Millisecond})
	var done []string
	d.Go(func() (int64, int64, error) { time.Sleep(time.Millisecond); return 1, 0, nil },
		func() { done = append(done, "ok") })
	d.Go(func() (int64, int64, error) { return 1, 0, errors.New("boom") },
		func() { done = append(done, "failed") })
	r := d.Run()
	if r.Errors != 1 || r.FirstErr == nil || !strings.Contains(r.FirstErr.Error(), "client 1: boom") {
		t.Fatalf("errors=%d first=%v, want client 1's error", r.Errors, r.FirstErr)
	}
	if r.Ops == 0 || r.Stalled != 0 || len(done) != 1 || done[0] != "ok" {
		t.Fatalf("ops=%d stalled=%d done=%v, want client 0's ops and its done alone", r.Ops, r.Stalled, done)
	}
}
