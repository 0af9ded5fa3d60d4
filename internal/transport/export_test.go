package transport

import (
	"net"
	"time"
)

// The unbatched reference the batching tests compare with: one frame per
// write syscall on the client, one frame served and flushed per wakeup on
// the server. Production code has no way to ask for it.

// SetMaxFlushFrames caps the frames one client Write may carry.
func (c *Client) SetMaxFlushFrames(n int) {
	c.fl.mu.Lock()
	c.fl.maxFrames = n
	c.fl.mu.Unlock()
}

// SetWakeupBatch caps the frames one server wakeup serves. Call before
// Serve.
func (s *Server) SetWakeupBatch(n int) { s.batch = n }

// FramerBytes is what the client's socket holds in framer buffers: its
// read buffer and its flusher's staging buffer.
func (c *Client) FramerBytes() int {
	c.fl.mu.Lock()
	defer c.fl.mu.Unlock()
	return cap(c.fr.buf) + cap(c.fl.stage)
}

// ServeConnFramerBytes is ServeConn, returning what the socket's framers
// held when it closed: its read buffer and its staging buffer.
func (s *Server) ServeConnFramerBytes(nc net.Conn) (int, error) {
	sk, err := s.addSock(nc)
	if err != nil {
		nc.Close()
		return 0, err
	}
	sk.loop()
	return cap(sk.fr.buf) + cap(sk.fw.buf), nil
}

// ReadStart is the size a socket's read buffer starts at.
const ReadStart = readStart

// ReadChunk is the largest read buffer a socket holds outside the
// server's read budget.
const ReadChunk = readChunk

// ReadBudget is the bytes above ReadChunk a server's sockets may hold in
// read buffers at once.
const ReadBudget = readBudget

// ReadBudgetHeld is what the server's sockets hold of its read budget.
func (s *Server) ReadBudgetHeld() int {
	s.reads.mu.Lock()
	defer s.reads.mu.Unlock()
	return s.reads.used
}

// SetCloseDrainGrace sets how long Close waits for staged frames to reach
// a peer that does not read, and returns the previous value.
func SetCloseDrainGrace(d time.Duration) time.Duration {
	old := closeDrainGrace
	closeDrainGrace = d
	return old
}

// SetFrameReadTimeout sets how long a server socket holding read budget
// may take to receive the rest of its frame, and returns the previous
// value.
func SetFrameReadTimeout(d time.Duration) time.Duration {
	old := frameReadTimeout
	frameReadTimeout = d
	return old
}

// tempRegionFill is how many AllocConnTemp calls exactly fill the first n
// regions of the carving schedule, so call tempRegionFill(n)+1 is the one
// that registers region n+1.
func tempRegionFill(n int) int {
	calls, bufs := 0, uint64(0)
	for i := 0; i < n; i++ {
		bufs = nextTempBufs(bufs)
		calls += int(bufs)
	}
	return calls
}
