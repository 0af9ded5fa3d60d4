package transport

import (
	"io"
	"sync"

	"prism/internal/wire"
)

// Client-side doorbell batching. The live client used to issue one
// Write syscall per frame: every issuer serialized on the socket mutex
// and paid the full boundary crossing alone. PRISM's hardware story
// amortizes exactly this cost with doorbell batching — one MMIO ring
// covers a chain of posted work requests — and the multiplexed-socket
// layout makes the software analogue free concurrency: many logical
// connections already share each socket, so their frames can share a
// syscall too.
//
// flusher is that analogue: a FrameWriter shared under a mutex, plus one
// spare buffer. Issuers stage frames through the FrameWriter and ring the
// doorbell (a cond signal); one writer goroutine per socket takes the
// whole staged train by swapping the FrameWriter's buffer with the spare,
// writes it in a single Write, and keeps it as the next spare. The flush
// policy is adaptive with no timer:
//
//   - An idle socket dispatches immediately — the writer is parked, the
//     first staged frame wakes it, and it writes that frame alone. No
//     batching delay is ever added to an idle connection.
//   - A busy socket coalesces for free — frames staged while a Write is
//     in flight accumulate, and the writer takes the whole backlog in its
//     next Write. The queue draining is what closes a batch, not a clock.
//
// Every swap drains a buffer completely, so each of the two holds at most
// the largest backlog the socket has seen. Issuers never block on
// staging (the send windows already bound total in-flight frames per
// connection), so a stalled peer can not deadlock a goroutine reading
// for the socket against its own writes.
type flusher struct {
	onError func(error) // invoked without mu on a write failure, once

	mu    sync.Mutex
	wake  *sync.Cond  // writer parks here when fully drained
	idle  *sync.Cond  // close waiters park here until the writer exits
	fw    FrameWriter // staged frames; its telemetry counts the writer's Writes
	spare []byte      // the buffer the writer wrote last, emptied

	closed bool
	err    error
	exited bool // the writer goroutine is gone: nothing is in Write
}

func newFlusher(nc io.Writer, onError func(error)) *flusher {
	f := &flusher{fw: FrameWriter{w: nc}, onError: onError}
	f.wake = sync.NewCond(&f.mu)
	f.idle = sync.NewCond(&f.mu)
	go f.run()
	return f
}

// stats returns the syscall telemetry: Write calls issued, frames and
// bytes they carried. A Write in progress counts; a failed one does not.
func (f *flusher) stats() (writes, frames, bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fw.Writes, f.fw.FramesOut, f.fw.BytesFlushed
}

// stageRequest stages req as one encoded frame behind any staged
// frames. With kick, the writer is woken — the doorbell; without, the
// frame waits for a later kick, which is how a fan-out stages a whole
// round's chains and rings once.
func (f *flusher) stageRequest(req *wire.Request, kick bool) error {
	return f.stage(kick, func(fw *FrameWriter) error { return fw.StageRequest(req) })
}

// stageControl stages a control frame and rings the doorbell.
func (f *flusher) stageControl(kind byte, payload []byte) error {
	return f.stage(true, func(fw *FrameWriter) error { return fw.Stage(kind, payload) })
}

// stage runs one FrameWriter staging call under mu, unless the flusher
// is poisoned or closed, and rings the doorbell with kick.
func (f *flusher) stage(kick bool, frame func(*FrameWriter) error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.err != nil:
		return f.err
	case f.closed:
		return ErrClientClosed
	}
	if err := frame(&f.fw); err != nil {
		return err
	}
	if kick {
		f.wake.Signal()
	}
	return nil
}

// kick rings the doorbell: wakes the writer if frames are staged.
func (f *flusher) kick() {
	f.mu.Lock()
	f.wake.Signal()
	f.mu.Unlock()
}

// poison kills the flusher from outside (socket teardown): staged
// frames are dropped and the writer goroutine exits.
func (f *flusher) poison(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.wake.Signal()
	f.mu.Unlock()
}

// close drains staged frames and stops the writer — a graceful
// teardown keeps the final fire-and-forget frames (reclamation
// batches) on the wire. Blocks until the writer has exited, drained or
// dead: a frame is on the wire when its Write returned, not when the
// writer took it.
func (f *flusher) close() {
	f.mu.Lock()
	f.closed = true
	f.wake.Signal()
	for !f.exited {
		f.idle.Wait()
	}
	f.mu.Unlock()
}

// run is the writer goroutine: park while drained, then take the whole
// staged train and write it, until the queue drains again.
func (f *flusher) run() {
	f.mu.Lock()
	for {
		for f.fw.staged == 0 && !f.closed && f.err == nil {
			f.wake.Wait()
		}
		if f.err != nil || f.fw.staged == 0 {
			// Poisoned, or closed and drained.
			f.exited = true
			f.idle.Broadcast()
			f.mu.Unlock()
			return
		}
		// Take the train: issuers stage into the spare while it is
		// written.
		buf, n := f.fw.buf, f.fw.staged
		f.fw.buf, f.fw.staged = f.spare[:0], 0
		// Counted before the Write: the peer can answer, and an issuer
		// read the answer, before this goroutine takes the lock again,
		// and the stats must already hold the write that carried it.
		f.fw.Writes++
		f.fw.FramesOut += int64(n)
		f.fw.BytesFlushed += int64(len(buf))
		f.mu.Unlock()
		_, werr := f.fw.w.Write(buf)
		f.mu.Lock()
		f.spare = buf
		if werr != nil {
			// A failed (possibly partial) Write counts nothing: the
			// telemetry reports frames/bytes carried to the wire, and an
			// errored batch never reliably was.
			f.fw.Writes--
			f.fw.FramesOut -= int64(n)
			f.fw.BytesFlushed -= int64(len(buf))
			if f.err == nil {
				f.err = werr
			}
			f.exited = true
			f.idle.Broadcast()
			f.mu.Unlock()
			f.onError(werr)
			return
		}
	}
}
