package transport

import (
	"net"
	"time"
)

// SetWakeupBatch caps the frames one server wakeup serves. Call before
// Serve. At 1 it is the unbatched reference the batching tests compare
// with: one frame served and flushed per wakeup. Production code has no
// way to ask for it.
func (s *Server) SetWakeupBatch(n int) { s.batch = n }

// FramerBytes is what the client's socket holds in framer buffers: its
// read buffers (see ReadFootprint) and its flusher's two staging buffers.
func (c *Client) FramerBytes() int {
	read, _ := c.ReadFootprint()
	c.fl.mu.Lock()
	defer c.fl.mu.Unlock()
	return read + cap(c.fl.fw.buf) + cap(c.fl.spare)
}

// ReadFootprint is what the client holds to read responses with: its
// read buffer, and the payload copies its connections' entries keep. A
// buffer lent to a connection's results stays the read buffer until
// another reader moves on; then the results alone hold it. Call it with
// no issue in flight.
func (c *Client) ReadFootprint() (bufBytes, copyBytes int) {
	c.mu.Lock()
	conns := make([]*Conn, 0, len(c.conns))
	for _, cn := range c.conns {
		conns = append(conns, cn)
	}
	c.mu.Unlock()
	for _, cn := range conns {
		cn.mu.Lock()
		for _, e := range cn.win.free {
			copyBytes += cap(e.X.data)
		}
		cn.mu.Unlock()
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return cap(c.fr.buf), copyBytes
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
