package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"prism/internal/memory"
	"prism/internal/wire"
)

// Regression coverage for review findings on the doorbell-batched
// datapath: a connect frame coalescing into a verbs wakeup batch, a
// Close drain against a peer that stopped reading, and flush telemetry
// on failed writes.

// TestConnectCoalescedWithVerbsBatch drives a connect frame into the
// same server wakeup batch as a verbs request, at the exact point where
// AllocConnTemp must register a fresh temp region. handleConnect used
// to run with the batch's amortized space guard still held (inVerbs set
// by the earlier request frame), so the registration's guard acquisition
// self-deadlocked — permanently, holding the global guard.
func TestConnectCoalescedWithVerbsBatch(t *testing.T) {
	s := NewServer()
	cEnd, sEnd := net.Pipe()
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); s.ServeConn(sEnd) }()

	c, err := NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}

	// Fill the first two temp regions of AllocConnTemp's carving schedule
	// exactly, so the coalesced connect below is the one that must
	// register a new region under the space guard.
	var first *Conn
	for i := 0; i < tempRegionFill(2); i++ {
		cn, err := c.Connect()
		if err != nil {
			t.Fatalf("Connect %d: %v", i, err)
		}
		if first == nil {
			first = cn
		}
	}

	// Stage a verbs request with the doorbell suppressed, then Connect:
	// its control frame rings once and the writer flushes both frames in
	// one Write. The synchronous pipe delivers them in one read, so the
	// server serves both in a single wakeup batch — the request frame
	// takes the amortized guard, and handleConnect must release it
	// before registering the new temp region.
	req := &wire.Request{
		Conn: first.id,
		Seq:  1 << 32, // outside the window's range; the response is tolerated as unknown
		Ops:  []wire.Op{{Code: wire.OpRead, RKey: first.TempKey, Target: first.TempAddr, Len: 8}},
	}
	if err := c.fl.stageRequest(req, false); err != nil {
		t.Fatalf("stageRequest: %v", err)
	}
	type out struct {
		cn  *Conn
		err error
	}
	done := make(chan out, 1)
	go func() {
		cn, err := c.Connect()
		done <- out{cn, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("Connect coalesced with verbs batch: %v", o.err)
		}
		if o.cn.TempAddr == first.TempAddr {
			t.Fatal("coalesced connect reused the first connection's temp buffer")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Connect coalesced into a verbs wakeup batch hung (space-guard deadlock)")
	}

	c.Close()
	<-serveDone
}

// TestCloseStalledPeer pins that Close returns even when the peer is
// alive but not reading: the drain of staged frames is bounded by a
// write deadline, so a writer stuck in Write fails at the deadline
// instead of hanging Close forever.
func TestCloseStalledPeer(t *testing.T) {
	old := closeDrainGrace
	closeDrainGrace = 100 * time.Millisecond
	defer func() { closeDrainGrace = old }()

	cEnd, sEnd := net.Pipe()
	defer sEnd.Close()
	// The peer handshakes, then goes silent: it never reads again, so on
	// the synchronous pipe any flushed frame leaves the client's writer
	// blocked in Write.
	handshook := make(chan struct{})
	go func() {
		fr := NewFrameReader(sEnd)
		fw := NewFrameWriter(sEnd)
		if kind, _, err := fr.Next(); err != nil || kind != frameHello {
			t.Errorf("stalled peer handshake: kind=0x%02x err=%v", kind, err)
			sEnd.Close()
			return
		}
		if err := fw.Send(frameWelcome, nil); err != nil {
			t.Errorf("stalled peer welcome: %v", err)
			sEnd.Close()
		}
		close(handshook)
	}()

	c, err := NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	<-handshook
	// Stage a frame the stalled peer will never accept.
	if err := c.fl.stageControl(frameConnect, nil); err != nil {
		t.Fatalf("stageControl: %v", err)
	}

	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a peer that stopped reading")
	}
}

// errWriter fails every Write without carrying any bytes.
type errWriter struct{ err error }

func (w errWriter) Write(p []byte) (int, error) { return 0, w.err }

// TestFlushStatsSkipFailedWrites pins that the flusher's syscall
// telemetry only counts writes that succeeded: a failed (possibly
// partial) Write must not inflate frames_per_write/bytes_per_syscall
// with frames that never reached the wire.
func TestFlushStatsSkipFailedWrites(t *testing.T) {
	boom := errors.New("boom")
	errc := make(chan error, 1)
	f := newFlusher(errWriter{err: boom}, func(err error) { errc <- err })
	if err := f.stageControl(frameConnect, nil); err != nil {
		t.Fatalf("stageControl: %v", err)
	}
	select {
	case err := <-errc:
		if err != boom {
			t.Fatalf("onError = %v, want %v", err, boom)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reported the failed Write")
	}
	if w, fr, b := f.stats(); w != 0 || fr != 0 || b != 0 {
		t.Fatalf("stats after failed write = %d writes, %d frames, %d bytes; want all zero", w, fr, b)
	}
}

// TestQuiesceRunsUnderGuard pins the contract the simulated and live
// servers now share through HostCore: an immediately-ready Quiesce
// callback runs with the space guard held, a deferred one runs wherever
// the last in-flight op ends, and either way the callback must not take
// the guard itself (it is not reentrant).
func TestQuiesceRunsUnderGuard(t *testing.T) {
	h := NewHostCore(memory.NewSpace())
	ran := false
	h.Quiesce(func() {
		ran = true
		if h.Space().Guard().TryLock() {
			t.Error("idle Quiesce ran its callback without the space guard")
		}
	})
	if !ran {
		t.Fatal("idle Quiesce did not run its callback")
	}
	tok := h.Quiescer().OpStart()
	ran = false
	h.Quiesce(func() { ran = true })
	if ran {
		t.Fatal("Quiesce ran its callback with an operation in flight")
	}
	h.Quiescer().OpEnd(tok)
	if !ran {
		t.Fatal("deferred Quiesce callback did not run when the operation ended")
	}
	if !h.Space().Guard().TryLock() {
		t.Fatal("Quiesce left the space guard held")
	}
}
