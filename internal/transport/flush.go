package transport

import (
	"encoding/binary"
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
// flusher is that analogue. Issuers append encoded frames to a shared
// staging buffer and ring the doorbell (a cond signal); one writer
// goroutine per socket flushes staged frames with a single vectored
// Write per wakeup. The flush policy is adaptive with no timer:
//
//   - An idle socket dispatches immediately — the writer is parked, the
//     first staged frame wakes it, and it writes that frame alone. No
//     batching delay is ever added to an idle connection.
//   - A busy socket coalesces for free — frames staged while a Write is
//     in flight accumulate, and the writer takes the whole backlog (up
//     to the flushFrames/flushBytes occupancy caps) in its next Write.
//     The queue draining is what closes a batch, not a clock.
//
// Issuers never block on staging (the send windows already bound total
// in-flight frames per connection), so a stalled peer can not deadlock
// the demux goroutine against its own socket.
type flusher struct {
	nc      io.Writer
	onError func(error) // invoked without mu on a write failure, once

	mu    sync.Mutex
	wake  *sync.Cond // writer parks here when fully drained
	idle  *sync.Cond // close waiters park here until the writer exits
	stage []byte     // staged frame bytes; written prefix immutable
	ends  []int      // end offset in stage of each staged frame
	done  int        // frames already written (index into ends)

	// maxFrames is flushFrames; a field only so the batching tests can
	// lower it to 1, the write-per-frame reference (export_test.go).
	maxFrames int

	closed bool
	err    error
	exited bool // the writer goroutine is gone: nothing is in Write

	writes, frames, bytes int64 // syscall telemetry, under mu
}

// The most frames and bytes one Write may carry. Generous on purpose:
// they cap batch size, they do not trigger a flush — dispatch latency
// comes from the queue-drain policy above, so a large cap only bounds how
// much one Write can carry.
const (
	flushFrames = 1024
	flushBytes  = 256 << 10
)

func newFlusher(nc io.Writer, onError func(error)) *flusher {
	f := &flusher{
		nc:        nc,
		onError:   onError,
		maxFrames: flushFrames,
	}
	f.wake = sync.NewCond(&f.mu)
	f.idle = sync.NewCond(&f.mu)
	go f.run()
	return f
}

// stats returns the syscall telemetry: Write calls completed, frames
// and bytes they carried.
func (f *flusher) stats() (writes, frames, bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes, f.frames, f.bytes
}

// stageRequest appends req as one encoded frame behind any staged
// frames. With kick, the writer is woken — the doorbell; without, the
// frame waits for a later kick, which is how IssueBatch stages a whole
// chain train and rings once.
func (f *flusher) stageRequest(req *wire.Request, kick bool) error {
	f.mu.Lock()
	if err := f.stageErr(); err != nil {
		f.mu.Unlock()
		return err
	}
	start := len(f.stage)
	f.stage = append(f.stage, 0, 0, 0, 0, frameRequest)
	f.stage = wire.AppendRequest(f.stage, req)
	err := f.sealFrame(start, kick)
	f.mu.Unlock()
	return err
}

// stageControl appends a control frame and rings the doorbell.
func (f *flusher) stageControl(kind byte, payload []byte) error {
	f.mu.Lock()
	if err := f.stageErr(); err != nil {
		f.mu.Unlock()
		return err
	}
	start := len(f.stage)
	f.stage = append(f.stage, 0, 0, 0, 0, kind)
	f.stage = append(f.stage, payload...)
	err := f.sealFrame(start, true)
	f.mu.Unlock()
	return err
}

// stageErr reports why staging is refused, if it is. Caller holds mu.
func (f *flusher) stageErr() error {
	if f.err != nil {
		return f.err
	}
	if f.closed {
		return ErrClientClosed
	}
	return nil
}

// sealFrame patches the length prefix of the frame staged at start and
// optionally rings the doorbell. Caller holds mu.
func (f *flusher) sealFrame(start int, kick bool) error {
	n := len(f.stage) - start - frameHeaderLen
	if n > MaxFrame {
		f.stage = f.stage[:start]
		return ErrFrameTooBig
	}
	binary.LittleEndian.PutUint32(f.stage[start:], uint32(n))
	f.ends = append(f.ends, len(f.stage))
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

// reclaim drops the written prefix of the staging buffer once it is at
// least as long as the backlog behind it, sliding the backlog to the
// front (each staged byte moves at most once more than it is written).
// Waiting for a fully drained queue is not enough: a closed-loop issuer
// whose next frames are staged before the writer is back from Write
// never leaves it one, and the buffer grew for as long as that streak
// lasted — hundreds of KiB per socket, by the luck of the scheduling.
// Caller holds mu, and no Write is in flight.
func (f *flusher) reclaim() {
	if f.done == 0 {
		return
	}
	head := f.ends[f.done-1]
	if head < len(f.stage)-head {
		return
	}
	f.stage = f.stage[:copy(f.stage, f.stage[head:])]
	f.ends = f.ends[:copy(f.ends, f.ends[f.done:])]
	for i := range f.ends {
		f.ends[i] -= head
	}
	f.done = 0
}

// run is the writer goroutine: park while drained, then flush staged
// frames — up to the occupancy caps per Write — until the queue drains
// again.
func (f *flusher) run() {
	f.mu.Lock()
	for {
		f.reclaim()
		for f.done == len(f.ends) && !f.closed && f.err == nil {
			f.wake.Wait()
		}
		if f.err != nil || f.done == len(f.ends) {
			// Poisoned, or closed and drained.
			f.exited = true
			f.idle.Broadcast()
			f.mu.Unlock()
			return
		}
		head := 0
		if f.done > 0 {
			head = f.ends[f.done-1]
		}
		// Take staged frames up to the caps, always at least one.
		k := f.done + 1
		for k < len(f.ends) && k+1-f.done <= f.maxFrames && f.ends[k]-head <= flushBytes {
			k++
		}
		cut := f.ends[k-1]
		// Safe to write without the lock: bytes below cut are sealed and
		// immutable, and concurrent staging appends strictly above cut
		// (a growth reallocation leaves this backing array intact).
		buf := f.stage[head:cut]
		n := int64(k - f.done)
		f.done = k
		f.mu.Unlock()
		_, werr := f.nc.Write(buf)
		f.mu.Lock()
		if werr != nil {
			// A failed (possibly partial) Write counts nothing: the
			// telemetry reports frames/bytes carried to the wire, and an
			// errored batch never reliably was.
			if f.err == nil {
				f.err = werr
			}
			f.exited = true
			f.idle.Broadcast()
			f.mu.Unlock()
			f.onError(werr)
			return
		}
		f.writes++
		f.frames += n
		f.bytes += int64(len(buf))
	}
}
