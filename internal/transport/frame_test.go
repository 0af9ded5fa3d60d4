package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"prism/internal/prism"
	"prism/internal/wire"
)

// testFrames is a representative frame sequence: control frames and a
// real encoded request.
func testFrames(t testing.TB) ([]byte, [][2]interface{}) {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	req := &wire.Request{Conn: 7, Seq: 3, Epoch: 1, Ops: []wire.Op{
		prism.ReadBounded(9, 0x1000, 256),
	}}
	frames := [][2]interface{}{
		{byte(frameHello), append([]byte(nil), helloMagic...)},
		{byte(frameConnect), []byte(nil)},
		{byte(frameAccept), appendAccept(nil, 5, 0x2000, 9)},
	}
	for _, f := range frames {
		if err := fw.Send(f[0].(byte), f[1].([]byte)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := fw.StageRequest(req); err != nil {
		t.Fatalf("StageRequest: %v", err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	frames = append(frames, [2]interface{}{byte(frameRequest), wire.AppendRequest(nil, req)})
	return buf.Bytes(), frames
}

func TestFrameRoundTrip(t *testing.T) {
	raw, frames := testFrames(t)
	fr := NewFrameReader(bytes.NewReader(raw))
	for i, want := range frames {
		kind, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != want[0].(byte) {
			t.Fatalf("frame %d: kind 0x%02x, want 0x%02x", i, kind, want[0].(byte))
		}
		if !bytes.Equal(payload, want[1].([]byte)) {
			t.Fatalf("frame %d: payload %x, want %x", i, payload, want[1].([]byte))
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("at end of stream: err = %v, want io.EOF", err)
	}
}

// TestFrameTruncationEveryOffset cuts the stream at every byte offset:
// a cut at a frame boundary must read as a clean io.EOF, a cut anywhere
// inside a frame as io.ErrUnexpectedEOF, and the frames before the cut
// must all arrive intact.
func TestFrameTruncationEveryOffset(t *testing.T) {
	raw, frames := testFrames(t)
	// Compute the frame boundaries (offset after each complete frame).
	boundaries := map[int]int{0: 0} // offset -> frames completed
	off := 0
	for i, f := range frames {
		off += 4 + 1 + len(f[1].([]byte))
		boundaries[off] = i + 1
	}
	for cut := 0; cut <= len(raw); cut++ {
		fr := NewFrameReader(bytes.NewReader(raw[:cut]))
		n := 0
		var err error
		for {
			_, payload, e := fr.Next()
			if e != nil {
				err = e
				break
			}
			if want := frames[n][1].([]byte); !bytes.Equal(payload, want) {
				t.Fatalf("cut %d: frame %d corrupted", cut, n)
			}
			n++
		}
		if complete, ok := boundaries[cut]; ok {
			if err != io.EOF {
				t.Fatalf("cut %d (boundary): err = %v, want io.EOF", cut, err)
			}
			if n != complete {
				t.Fatalf("cut %d: read %d frames, want %d", cut, n, complete)
			}
		} else if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d (mid-frame): err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestFrameDribble feeds the frame stream through a net.Pipe one byte
// at a time, so every read — length prefix included — is split.
func TestFrameDribble(t *testing.T) {
	raw, frames := testFrames(t)
	cr, cw := net.Pipe()
	go func() {
		defer cw.Close()
		for i := range raw {
			if _, err := cw.Write(raw[i : i+1]); err != nil {
				return
			}
		}
	}()
	cr.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := NewFrameReader(cr)
	for i, want := range frames {
		kind, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != want[0].(byte) || !bytes.Equal(payload, want[1].([]byte)) {
			t.Fatalf("frame %d corrupted by dribbled reads", i)
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("at end of stream: err = %v, want io.EOF", err)
	}
}

// chunkReader returns its backing bytes in fixed-size chunks, splitting
// length prefixes across reads at every chunk size 1..7.
type chunkReader struct {
	b     []byte
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := c.chunk
	if n > len(c.b) {
		n = len(c.b)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.b[:n])
	c.b = c.b[n:]
	return n, nil
}

func TestFrameSplitPrefix(t *testing.T) {
	raw, frames := testFrames(t)
	for chunk := 1; chunk <= 7; chunk++ {
		fr := NewFrameReader(&chunkReader{b: raw, chunk: chunk})
		for i, want := range frames {
			kind, payload, err := fr.Next()
			if err != nil {
				t.Fatalf("chunk %d frame %d: %v", chunk, i, err)
			}
			if kind != want[0].(byte) || !bytes.Equal(payload, want[1].([]byte)) {
				t.Fatalf("chunk %d: frame %d corrupted", chunk, i)
			}
		}
	}
}

func TestFrameOversizedRejected(t *testing.T) {
	// Reader side: a hostile length prefix must be refused before any
	// buffer balloons.
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0x01, 0x00, 0x00, 0x01 // 1<<24 + 1 > MaxFrame
	fr := NewFrameReader(bytes.NewReader(hdr[:]))
	if _, _, err := fr.Next(); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized prefix: err = %v, want ErrFrameTooBig", err)
	}
	// Writer side: an oversized frame is refused before hitting the wire.
	var sink bytes.Buffer
	fw := NewFrameWriter(&sink)
	if err := fw.Send(frameRequest, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized send: err = %v, want ErrFrameTooBig", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("oversized send wrote %d bytes", sink.Len())
	}
}

func TestFrameZeroLengthRejected(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader([]byte{0, 0, 0, 0}))
	if _, _, err := fr.Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero-length frame: err = %v, want ErrBadFrame", err)
	}
}

// FuzzFrameReader throws arbitrary bytes at the framer: it must never
// panic, and any frame it does accept must obey its length prefix.
func FuzzFrameReader(f *testing.F) {
	raw, _ := testFrames(f)
	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, frameHello})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			_, payload, err := fr.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF &&
					!errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrFrameTooBig) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(payload)+1 > MaxFrame {
				t.Fatalf("accepted frame larger than MaxFrame")
			}
		}
	})
}

// TestFramedSendAllocs pins the zero-allocation guarantee for the live
// send path: framing and encoding a GET and a PUT chain must not
// allocate once the writer's buffer has warmed up.
func TestFramedSendAllocs(t *testing.T) {
	fw := NewFrameWriter(io.Discard)

	get := &wire.Request{Conn: 1, Seq: 1, Ops: []wire.Op{
		prism.ReadBounded(3, 0x40, 1024),
	}}
	var ptrBuf [8]byte
	pre := make([]byte, 24)
	entry := make([]byte, 64)
	putOps := []wire.Op{
		prism.Write(4, 0x80, pre),
		prism.Conditional(prism.RedirectTo(prism.Allocate(1, entry), 4, 0x88)),
		prism.Conditional(prism.CASIndirectDataBuf(&ptrBuf, 3, 0x100, wire.CASGt, 0x80,
			prism.FieldMask(24, 0, 8), prism.FullMask(24))),
	}
	put := &wire.Request{Conn: 1, Seq: 2, Ops: putOps}

	for name, req := range map[string]*wire.Request{"get": get, "put-chain": put} {
		req := req
		send := func() {
			if err := fw.StageRequest(req); err != nil {
				t.Fatalf("StageRequest: %v", err)
			}
			if err := fw.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
		send() // warm the reused encode buffer
		if n := testing.AllocsPerRun(100, send); n != 0 {
			t.Errorf("%s framed send allocates %.1f times per op, want 0", name, n)
		}
	}
}
