package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/memory"
	"prism/internal/wire"
)

// Stream framing. A frame is
//
//	u32 LE length | u8 kind | payload
//
// where length counts the kind byte plus the payload. Request and
// response payloads are the canonical internal/wire encodings; control
// frames (hello/welcome/connect/accept) use the fixed layouts below.
// The framer never allocates in steady state: FrameWriter appends into
// one reusable buffer, FrameReader reads into one reusable buffer that
// the returned payload (and any alias-decoded message) borrows until
// the next call.
//
// Both sides batch at the syscall boundary — the software analogue of
// doorbell batching, where one MMIO ring covers a chain of posted work
// requests:
//
//   - FrameWriter separates staging from flushing: Stage* appends a
//     frame behind any already staged, Flush issues one Write for the
//     whole train.
//   - FrameReader reads as much as its buffer holds, so one read
//     syscall can deliver many frames; Buffered reports whether the
//     next frame is already decodable without touching the socket,
//     which is what lets the server drain a whole wakeup's worth of
//     requests before flushing the responses.
const (
	frameHello    = 0x01 // client → server, once per socket: magic + version
	frameWelcome  = 0x02 // server → client: hello accepted
	frameConnect  = 0x03 // client → server: open a logical connection
	frameAccept   = 0x04 // server → client: conn id, temp addr, temp key
	frameRequest  = 0x05 // client → server: wire.Request
	frameResponse = 0x06 // server → client: wire.Response
)

// helloMagic identifies the protocol and its version. A server refuses
// sockets that do not lead with it, so a stray client of some other
// protocol fails fast instead of desyncing the framer.
var helloMagic = []byte("PRSM\x01")

// MaxFrame bounds a frame's length prefix. A request is at most 64 ops
// of ≤1 MiB inline payload+masks each (wire.maxInline), so 16 MiB
// rejects nothing the codec would accept for sane op counts while
// keeping a corrupt or hostile length prefix from ballooning the read
// buffer.
const MaxFrame = 16 << 20

// frameHeaderLen is the length prefix size.
const frameHeaderLen = 4

// A FrameReader's buffer follows its traffic. It starts at readStart,
// which holds a request, a GET response or a train of a few. When its
// window drains it rewinds to offset 0, so the next frame lands at the
// front instead of being split at the buffer's end. A frame of up to
// readChunk bytes that does not fit grows it to exactly that frame's
// size. A read that fills it with a burst of several frames doubles it,
// up to readChunk, so a batched socket still takes a burst in one syscall
// instead of two (header + body) per frame. Below readChunk it never
// shrinks: a socket's traffic shape is set by its clients and rarely
// changes.
//
// A frame above readChunk is sized by its bytes, not by its length
// prefix: the buffer doubles each time the frame's bytes fill it, capped
// at the frame. A peer that sends a MaxFrame prefix and stalls pins
// readStart, not 16 MiB. Once such a frame has been consumed, the buffer
// shrinks back to readStart at the next read.
//
// On a server, every socket's bytes above readChunk come out of one
// budget of readBudget bytes; a buffer of up to readChunk is already
// bounded by MaxSockets. A frame above readChunk takes all it will need
// when its first readChunk bytes have arrived — not on its length prefix,
// which costs a peer nothing to send — so a frame that is admitted can
// always complete, and a socket holds budget only while it reads such a
// frame. The rest of that frame must arrive within frameReadTimeout, or
// the server closes the socket and the budget goes back: a peer that
// stalls mid-frame holds the budget for that long, not until it
// disconnects. Idle sockets and frames of up to readChunk have no
// deadline. A socket whose frame does not fit stops reading — TCP then
// pushes back on its peer — until another socket's frame is consumed or
// the server shuts down. A waiting socket does not see its own peer
// close until it reads again.
const (
	readStart = 4 << 10
	readChunk = 64 << 10
	// readBudget admits a legal frame whenever no other socket is
	// reading a frame above readChunk.
	readBudget = MaxFrame
)

// frameReadTimeout bounds how long a server socket holding read budget
// may take to receive the rest of its frame (see FrameReader).
var frameReadTimeout = 5 * time.Second

var (
	// ErrFrameTooBig reports a length prefix above MaxFrame (or an
	// attempt to send one).
	ErrFrameTooBig = errors.New("transport: frame exceeds MaxFrame")
	// ErrBadFrame reports a structurally invalid frame: a zero length
	// prefix or a control payload of the wrong shape.
	ErrBadFrame = errors.New("transport: malformed frame")
)

// FrameReader reads length-prefixed frames from a stream through an
// internal buffer sized to the traffic (readStart). Not safe for
// concurrent use; each socket gets its own.
type FrameReader struct {
	r          io.Reader
	buf        []byte // read storage, len == cap
	start, end int    // unconsumed window

	// budget is the server's read budget (nil on a client); held is what
	// this reader has taken from it. setDeadline, on a server socket,
	// sets its read deadline; due marks a frame above readChunk whose
	// deadline is not set yet.
	budget      *budget
	held        int
	setDeadline func(time.Time) error
	due         bool

	// Syscall telemetry: Read calls issued and bytes they returned.
	// Atomic because the reader's owner goroutine updates them while a
	// reporting goroutine may sample them.
	Reads     atomic.Int64
	BytesRead atomic.Int64
}

// NewFrameReader returns a framer over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// fill ensures need unconsumed bytes are buffered, rewinding, sliding,
// growing and shrinking the buffer as the sizing rule above says. It
// returns io.EOF only when the stream ends with the window empty; an end
// mid-window is io.ErrUnexpectedEOF (a length prefix or partial frame
// promised more).
func (fr *FrameReader) fill(need int) error {
	if fr.end-fr.start >= need {
		return nil
	}
	if fr.start == fr.end {
		fr.start, fr.end = 0, 0
	}
	switch {
	case need <= readChunk && len(fr.buf) > readChunk:
		// The frame above readChunk that grew the buffer is consumed.
		fr.resize(max(need, readStart))
		fr.reserve(0)
	case len(fr.buf)-fr.start < need:
		size := max(len(fr.buf), readStart)
		if need <= readChunk {
			size = max(size, need)
		}
		fr.resize(size)
	}
	for fr.end-fr.start < need {
		if fr.end == len(fr.buf) {
			// Full of a frame above readChunk: double toward it.
			size := min(need, 2*len(fr.buf))
			if size > readChunk && !fr.reserve(need) {
				return ErrServerClosed
			}
			fr.resize(size)
		}
		if fr.due && fr.held > 0 {
			// The frame holds budget: the rest of it is due.
			fr.budget.deadline(fr.setDeadline, time.Now().Add(frameReadTimeout))
			fr.due = false
		}
		m, err := fr.r.Read(fr.buf[fr.end:])
		if m > 0 {
			fr.Reads.Add(1)
			fr.BytesRead.Add(int64(m))
			fr.end += m
			if fr.end == len(fr.buf) && len(fr.buf) < readChunk && fr.cutFrame() {
				fr.resize(min(2*len(fr.buf), readChunk))
			}
		}
		if fr.end-fr.start >= need {
			return nil // satisfied; a sticky error resurfaces next call
		}
		if err != nil {
			if err == io.EOF && fr.end > fr.start {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// reserve makes what this reader holds of the server's read budget what a
// size-byte frame costs: its bytes above readChunk. Giving bytes back
// always succeeds; taking more waits until they are free, and reports
// false if the server shuts down first. A client's reader has no budget.
// Giving every byte back clears the socket's frame deadline.
func (fr *FrameReader) reserve(size int) bool {
	want := max(size-readChunk, 0)
	if fr.budget == nil || want == fr.held {
		return true
	}
	if !fr.budget.move(fr.held, want) {
		return false
	}
	if fr.held = want; want == 0 {
		fr.budget.deadline(fr.setDeadline, time.Time{})
	}
	return true
}

// budget is a server's read budget: bytes above readChunk that its
// sockets' read buffers hold, at most readBudget (see FrameReader).
type budget struct {
	mu     sync.Mutex
	freed  sync.Cond // signalled when bytes are given back or the server closes
	used   int
	closed bool
}

// move changes one holder's share from held to want bytes; see reserve.
func (b *budget) move(held, want int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed.L == nil {
		b.freed.L = &b.mu
	}
	for want > held && b.used+want-held > readBudget {
		if b.closed {
			return false
		}
		b.freed.Wait()
	}
	b.used += want - held
	if want < held {
		b.freed.Broadcast()
	}
	return true
}

// deadline sets a holder's read deadline through set, unless the server is
// shutting down: Shutdown sets every socket's deadline after closing b,
// and that one stands.
func (b *budget) deadline(set func(time.Time) error, at time.Time) {
	if set == nil {
		return
	}
	b.mu.Lock()
	if !b.closed {
		set(at)
	}
	b.mu.Unlock()
}

// close wakes every waiter for good: the server is shutting down.
func (b *budget) close() {
	b.mu.Lock()
	b.closed = true
	b.freed.Broadcast()
	b.mu.Unlock()
}

// resize moves the unconsumed window to the front of a size-byte
// buffer: the current one when it is that size, a new one otherwise.
func (fr *FrameReader) resize(size int) {
	buf := fr.buf
	if size != len(buf) {
		buf = make([]byte, size)
	}
	fr.end = copy(buf, fr.buf[fr.start:fr.end])
	fr.start = 0
	fr.buf = buf
}

// cutFrame reports whether the window holds more than the frame at its
// start — a burst of several frames, the last of which the buffer's end
// may have cut off.
func (fr *FrameReader) cutFrame() bool {
	w := fr.end - fr.start
	if w < frameHeaderLen {
		return false
	}
	return w > frameHeaderLen+int(binary.LittleEndian.Uint32(fr.buf[fr.start:]))
}

// Next reads one frame and returns its kind and payload. The payload
// aliases the reader's internal buffer and is valid only until the next
// call. A clean end of stream at a frame boundary returns io.EOF; a
// stream truncated mid-frame returns io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (kind byte, payload []byte, err error) {
	if err := fr.fill(frameHeaderLen); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(fr.buf[fr.start:])
	if n == 0 {
		return 0, nil, ErrBadFrame
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooBig
	}
	total := frameHeaderLen + int(n)
	fr.due = total > readChunk
	if err := fr.fill(total); err != nil {
		return 0, nil, err
	}
	body := fr.buf[fr.start+frameHeaderLen : fr.start+total]
	fr.start += total
	return body[0], body[1:], nil
}

// Buffered reports whether the next Next call can complete from the
// buffer alone — a whole frame (or a length prefix Next will reject) is
// already in memory, so serving it costs no read syscall. The server's
// wakeup loop drains frames while this holds, then flushes its staged
// responses in one write.
func (fr *FrameReader) Buffered() bool {
	avail := fr.end - fr.start
	if avail < frameHeaderLen {
		return false
	}
	n := binary.LittleEndian.Uint32(fr.buf[fr.start:])
	if n == 0 || n > MaxFrame {
		return true // Next returns the framing error without reading
	}
	return avail >= frameHeaderLen+int(n)
}

// FrameWriter writes length-prefixed frames to a stream, staging any
// number of frames into one reusable buffer and flushing them with a
// single Write. Not safe for concurrent use; callers sharing a socket
// serialize sends themselves (the client's concurrent path goes through
// flusher instead).
type FrameWriter struct {
	w      io.Writer
	buf    []byte // staged frames: prefix + kind + payload, repeated
	staged int    // frames staged since the last flush

	// Syscall telemetry: completed flushes (one Write each), and the
	// frames and bytes they carried.
	Writes       int64
	FramesOut    int64
	BytesFlushed int64
}

// NewFrameWriter returns a framer over w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// beginFrame appends the length placeholder and kind byte, returning
// the frame's start offset for endFrame.
func (fw *FrameWriter) beginFrame(kind byte) int {
	start := len(fw.buf)
	fw.buf = append(fw.buf, 0, 0, 0, 0, kind)
	return start
}

// endFrame patches the staged frame's length prefix, unwinding the
// frame (earlier staged frames intact) if it exceeds MaxFrame.
func (fw *FrameWriter) endFrame(start int) error {
	n := len(fw.buf) - start - frameHeaderLen
	if n > MaxFrame {
		fw.buf = fw.buf[:start]
		return ErrFrameTooBig
	}
	binary.LittleEndian.PutUint32(fw.buf[start:], uint32(n))
	fw.staged++
	return nil
}

// Stage appends a control frame behind any already-staged frames
// without writing.
func (fw *FrameWriter) Stage(kind byte, payload []byte) error {
	start := fw.beginFrame(kind)
	fw.buf = append(fw.buf, payload...)
	return fw.endFrame(start)
}

// StageRequest encodes req with the canonical codec and stages it as
// one frame. Allocation-free in steady state: the staging buffer is
// reused across flushes.
func (fw *FrameWriter) StageRequest(req *wire.Request) error {
	start := fw.beginFrame(frameRequest)
	fw.buf = wire.AppendRequest(fw.buf, req)
	return fw.endFrame(start)
}

// StageResponse encodes resp and stages it as one frame.
func (fw *FrameWriter) StageResponse(resp *wire.Response) error {
	start := fw.beginFrame(frameResponse)
	fw.buf = wire.AppendResponse(fw.buf, resp)
	return fw.endFrame(start)
}

// beginResponse starts a response staged in place, the server's one
// copy of every result payload: it stages the frame and response
// headers for n results, which the caller follows with n
// reserveResult/putResult pairs — executing each op in between, with
// carve as the executor's ReadAlloc — and closes with endFrame.
func (fw *FrameWriter) beginResponse(conn, seq uint64, epoch uint32, n int) int {
	start := fw.beginFrame(frameResponse)
	fw.buf = wire.AppendResponseHeader(fw.buf, conn, seq, epoch, n)
	return start
}

// reserveResult stages room for one result header and returns its
// offset for putResult.
func (fw *FrameWriter) reserveResult() int {
	off := len(fw.buf)
	fw.buf = append(fw.buf, make([]byte, wire.ResultHeaderLen)...)
	return off
}

// carve extends the staged frame by n bytes and returns them, so an op
// writes its payload straight behind the result header reserved for it.
// The bytes are stale; the op overwrites what it keeps and putResult
// trims the rest.
func (fw *FrameWriter) carve(n uint64) []byte {
	off := len(fw.buf)
	fw.buf = slices.Grow(fw.buf, int(n))[:off+int(n)]
	return fw.buf[off:]
}

// putResult patches the header reserved at off with res and ends the
// frame at res's payload. A carving the op did not fill — SCAN's budget,
// a READ that NAKed — is trimmed; a payload that is not in place behind
// the header (an RPC reply) is copied there.
func (fw *FrameWriter) putResult(off int, res *wire.Result) {
	wire.PutResultHeader(fw.buf[off:], res)
	p := off + wire.ResultHeaderLen
	n := len(res.Data)
	if n > 0 && (p >= len(fw.buf) || &res.Data[0] != &fw.buf[p]) {
		fw.buf = append(fw.buf[:p], res.Data...)
	}
	fw.buf = fw.buf[:p+n]
}

// Flush writes every staged frame in a single Write — the doorbell.
// A no-op when nothing is staged.
func (fw *FrameWriter) Flush() error {
	if fw.staged == 0 {
		return nil
	}
	n, frames := len(fw.buf), fw.staged
	_, err := fw.w.Write(fw.buf)
	fw.buf = fw.buf[:0]
	fw.staged = 0
	if err != nil {
		return err
	}
	fw.Writes++
	fw.FramesOut += int64(frames)
	fw.BytesFlushed += int64(n)
	return nil
}

// Send writes a control frame with the given kind and payload
// immediately (stage + flush).
func (fw *FrameWriter) Send(kind byte, payload []byte) error {
	if err := fw.Stage(kind, payload); err != nil {
		return err
	}
	return fw.Flush()
}

// Accept frame payload: conn id u64 LE | temp addr u64 LE | temp key
// u32 LE.
const acceptLen = 8 + 8 + 4

func appendAccept(dst []byte, id uint64, tempAddr memory.Addr, tempKey memory.RKey) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tempAddr))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(tempKey))
	return dst
}

func decodeAccept(b []byte) (id uint64, tempAddr memory.Addr, tempKey memory.RKey, err error) {
	if len(b) != acceptLen {
		return 0, 0, 0, fmt.Errorf("%w: accept frame is %d bytes, want %d", ErrBadFrame, len(b), acceptLen)
	}
	id = binary.LittleEndian.Uint64(b)
	tempAddr = memory.Addr(binary.LittleEndian.Uint64(b[8:]))
	tempKey = memory.RKey(binary.LittleEndian.Uint32(b[16:]))
	return id, tempAddr, tempKey, nil
}
