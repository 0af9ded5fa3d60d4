package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

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
	go func() { defer close(serveDone); s.ServeConn(CheckedConn(t, sEnd)) }()

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
	// The peer reads the first frame, then goes silent: it never reads
	// again, so on the synchronous pipe any flushed frame leaves the
	// client's writer blocked in Write.
	handshook := make(chan struct{})
	go func() {
		if kind, _, err := NewFrameReader(sEnd).Next(); err != nil || kind != frameConnect {
			t.Errorf("stalled peer handshake: kind=0x%02x err=%v", kind, err)
			sEnd.Close()
			return
		}
		close(handshook)
	}()

	c, err := NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	if err := c.fl.stageControl(frameConnect, helloMagic); err != nil {
		t.Fatalf("stageControl: %v", err)
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

// restageWriter stages the next frame from inside every Write, as a
// closed-loop issuer does whose response arrives before the writer
// goroutine is back from the syscall: the queue is never seen drained.
type restageWriter struct {
	f       *flusher
	left    int
	carried []byte
	idle    chan struct{}
}

func (w *restageWriter) Write(p []byte) (int, error) {
	w.carried = append(w.carried, p...)
	if w.left == 0 {
		close(w.idle)
		return len(p), nil
	}
	w.left--
	return len(p), w.f.stageControl(frameConnect, []byte{byte(w.left), byte(w.left >> 8)})
}

// TestFlusherStageStaysBounded pins that the staging buffers are bounded
// by the backlog, not by how long the socket goes without a fully
// drained moment: a single staging buffer used to grow by one frame per
// Write for the whole streak (70 KB here, hundreds of KiB of
// timing-dependent heap per socket under a batched closed loop).
func TestFlusherStageStaysBounded(t *testing.T) {
	const frames = 10000
	w := &restageWriter{left: frames - 1, idle: make(chan struct{})}
	f := newFlusher(w, func(err error) { t.Errorf("write failed: %v", err) })
	w.f = f
	if err := f.stageControl(frameConnect, []byte{0xff, 0xff}); err != nil {
		t.Fatalf("stageControl: %v", err)
	}
	select {
	case <-w.idle:
	case <-time.After(10 * time.Second):
		t.Fatal("writer never drained")
	}
	f.close()
	const frameLen = frameHeaderLen + 1 + 2
	for name, c := range map[string]int{"staging": cap(f.fw.buf), "spare": cap(f.spare)} {
		if c > 16*frameLen {
			t.Errorf("%s buffer holds %d bytes after a %d-frame streak of one-frame backlogs", name, c, frames)
		}
	}
	if wr, fr, b := f.stats(); wr != frames || fr != frames || b != frames*frameLen {
		t.Errorf("stats = %d writes, %d frames, %d bytes; want %d, %d, %d", wr, fr, b, frames, frames, frames*frameLen)
	}
	// The wire carried every frame whole and in staging order.
	if len(w.carried) != frames*frameLen {
		t.Fatalf("carried %d bytes, want %d", len(w.carried), frames*frameLen)
	}
	for i := 0; i < frames; i++ {
		fr := w.carried[i*frameLen : (i+1)*frameLen]
		want := uint16(frames - 1 - i) // left, counting down behind the first frame's 0xffff
		if i == 0 {
			want = 0xffff
		}
		if fr[0] != 3 || fr[4] != frameConnect || uint16(fr[5])|uint16(fr[6])<<8 != want {
			t.Fatalf("frame %d on the wire = % x, want payload %#04x", i, fr, want)
		}
	}
}

// recordWriter keeps a copy of every Write it is handed.
type recordWriter struct {
	mu     sync.Mutex
	writes [][]byte
	wrote  chan struct{}
}

func (w *recordWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, append([]byte(nil), p...))
	w.mu.Unlock()
	w.wrote <- struct{}{}
	return len(p), nil
}

// TestFlusherWritesWholeBacklog pins that the writer takes the whole
// staged train, however long, in one Write: 2,000 request frames of more
// than 256 KiB in total, staged without a doorbell and then kicked once,
// leave in a single Write, byte for byte in staging order, and the two
// staging buffers hold no more than twice the train afterwards.
func TestFlusherWritesWholeBacklog(t *testing.T) {
	const frames = 2000
	w := &recordWriter{wrote: make(chan struct{}, frames)}
	// Built by hand so that the writer starts only once the train is
	// staged: no Write can take part of it before the kick.
	f := &flusher{fw: FrameWriter{w: w}, onError: func(err error) { t.Errorf("write failed: %v", err) }}
	f.wake, f.idle = sync.NewCond(&f.mu), sync.NewCond(&f.mu)
	var want []byte
	for i := 0; i < frames; i++ {
		data := []byte(fmt.Sprintf("%0128d", i))
		req := &wire.Request{Conn: 1, Seq: uint64(i), Ops: []wire.Op{{Code: wire.OpWrite, RKey: 7, Target: 0x4000, Data: data}}}
		if err := f.stageRequest(req, false); err != nil {
			t.Fatalf("stageRequest %d: %v", i, err)
		}
		body := wire.AppendRequest([]byte{frameRequest}, req)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(body)))
		want = append(want, body...)
	}
	if len(want) <= 256<<10 {
		t.Fatalf("the train is %d bytes, want more than 256 KiB", len(want))
	}
	go f.run()
	f.kick()
	select {
	case <-w.wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("the kicked train was never written")
	}
	f.close()
	if len(w.writes) != 1 {
		t.Fatalf("the train left in %d Writes, want 1", len(w.writes))
	}
	if !bytes.Equal(w.writes[0], want) {
		t.Fatalf("the Write carried %d bytes that are not the %d staged, in order", len(w.writes[0]), len(want))
	}
	if wr, fr, b := f.stats(); wr != 1 || fr != frames || b != int64(len(want)) {
		t.Errorf("stats = %d writes, %d frames, %d bytes; want 1, %d, %d", wr, fr, b, frames, len(want))
	}
	if c := cap(f.fw.buf) + cap(f.spare); c > 2*len(want) {
		t.Errorf("the staging buffers hold %d bytes after a %d-byte train", c, len(want))
	}
}
