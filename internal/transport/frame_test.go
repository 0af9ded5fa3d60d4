package transport

import (
	"bytes"
	"encoding/binary"
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
		{byte(frameConnect), append([]byte(nil), helloMagic...)},
		{byte(frameConnect), []byte(nil)},
		{byte(frameAccept), appendAccept(nil, 5, 0x2000, 9)},
		{byte(frameRefuse), []byte{byte(refuseConns)}},
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

// schedReader returns its bytes in reads whose lengths a schedule picks:
// size byte s caps a read at 1+s² bytes (1 to 65,026), the schedule
// repeating; an empty schedule fills whatever the reader asks for.
type schedReader struct {
	b     []byte
	sizes []byte
	i     int
}

func (r *schedReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(r.sizes) > 0 {
		s := int(r.sizes[r.i%len(r.sizes)])
		r.i++
		n = min(n, 1+s*s)
	}
	n = copy(p[:n], r.b)
	r.b = r.b[n:]
	return n, nil
}

// parseFrames is the reference framer: the frames in data, in order, and
// the error a FrameReader must end with. maxTotal is the largest frame
// length (prefix included) any complete, valid length prefix declared.
func parseFrames(data []byte) (frames [][]byte, end error, maxTotal int) {
	for {
		if len(data) == 0 {
			return frames, io.EOF, maxTotal
		}
		if len(data) < frameHeaderLen {
			return frames, io.ErrUnexpectedEOF, maxTotal
		}
		n := int(binary.LittleEndian.Uint32(data))
		switch {
		case n == 0:
			return frames, ErrBadFrame, maxTotal
		case n > MaxFrame:
			return frames, ErrFrameTooBig, maxTotal
		}
		maxTotal = max(maxTotal, frameHeaderLen+n)
		if len(data) < frameHeaderLen+n {
			return frames, io.ErrUnexpectedEOF, maxTotal
		}
		frames = append(frames, data[frameHeaderLen:frameHeaderLen+n])
		data = data[frameHeaderLen+n:]
	}
}

// FuzzFrameReader throws arbitrary bytes at the framer, delivered in
// reads whose lengths the fuzzer also picks, so the buffer's rewind,
// slide, grow-to-fit and doubling paths see every split. The reader
// must return exactly the frames and the error the reference framer
// finds, and its buffer must stay within the larger of readChunk and
// the largest frame declared.
func FuzzFrameReader(f *testing.F) {
	raw, _ := testFrames(f)
	f.Add(raw, []byte{})
	f.Add(raw, []byte{0})
	f.Add(raw, []byte{2, 0, 7})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 0}, []byte{})
	f.Add([]byte{1, 0, 0, 0, frameConnect}, []byte{1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{})
	var burst bytes.Buffer
	fw := NewFrameWriter(&burst)
	for i := 0; i < 40; i++ {
		fw.Stage(frameResponse, bytes.Repeat([]byte{byte(i)}, 100+i*37))
	}
	fw.Stage(frameResponse, make([]byte, 9000))
	fw.Flush()
	f.Add(burst.Bytes(), []byte{})
	f.Add(burst.Bytes(), []byte{40, 255, 3})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		want, wantErr, maxTotal := parseFrames(data)
		fr := NewFrameReader(&schedReader{b: data, sizes: sizes})
		for i := 0; ; i++ {
			kind, payload, err := fr.Next()
			if err != nil {
				if i != len(want) || !errors.Is(err, wantErr) {
					t.Fatalf("after %d frames: err %v; want %v after %d", i, err, wantErr, len(want))
				}
				break
			}
			if i >= len(want) || kind != want[i][0] || !bytes.Equal(payload, want[i][1:]) {
				t.Fatalf("frame %d differs from the reference framer's", i)
			}
		}
		if len(fr.buf) > max(readChunk, maxTotal) {
			t.Fatalf("read buffer is %d bytes; the largest frame is %d", len(fr.buf), maxTotal)
		}
	})
}

// segReader delivers each segment in reads of its own, never two
// segments in one: the bytes of one peer write, read by a reader that
// keeps up with the writer.
type segReader struct{ segs [][]byte }

func (s *segReader) Read(p []byte) (int, error) {
	if len(s.segs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.segs[0])
	if s.segs[0] = s.segs[0][n:]; len(s.segs[0]) == 0 {
		s.segs = s.segs[1:]
	}
	return n, nil
}

// stream stages one frame per payload length and returns the bytes.
func stream(lens ...int) []byte {
	var b bytes.Buffer
	fw := NewFrameWriter(&b)
	for _, n := range lens {
		fw.Stage(frameResponse, make([]byte, n))
	}
	fw.Flush()
	return b.Bytes()
}

// readFrames reads every frame of fr's stream.
func readFrames(t *testing.T, fr *FrameReader) int {
	t.Helper()
	n := 0
	for {
		if _, _, err := fr.Next(); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		n++
	}
}

// TestFrameReaderStaysSmall: request/response traffic — a few small
// frames per write — never grows the buffer past its start, and each
// write arrives in one read.
func TestFrameReaderStaysSmall(t *testing.T) {
	var segs [][]byte
	total := 0
	for total < 10000 {
		k := 1 + total%4
		lens := make([]int, k)
		for i := range lens {
			lens[i] = 60 + (total+i)%900
		}
		segs = append(segs, stream(lens...))
		total += k
	}
	fr := NewFrameReader(&segReader{segs: segs})
	if n := readFrames(t, fr); n != total {
		t.Fatalf("read %d frames, want %d", n, total)
	}
	if len(fr.buf) != readStart {
		t.Errorf("read buffer is %d bytes after %d small frames, want %d", len(fr.buf), total, readStart)
	}
	if r := fr.Reads.Load(); r != int64(len(segs)) {
		t.Errorf("%d reads for %d writes", r, len(segs))
	}
}

// TestFrameReaderGrowsToFitFrame: a frame larger than the buffer grows
// it to that frame's size, not to readChunk. The first such frame takes
// two reads (the first one learns its length); the ones after it fit and
// take one each.
func TestFrameReaderGrowsToFitFrame(t *testing.T) {
	const big = 32 << 10
	fr := NewFrameReader(&segReader{segs: [][]byte{stream(100), stream(big), stream(big - 1000), stream(500)}})
	if n := readFrames(t, fr); n != 4 {
		t.Fatalf("read %d frames, want 4", n)
	}
	if want := frameHeaderLen + 1 + big; len(fr.buf) != want {
		t.Errorf("read buffer is %d bytes after a %d-byte frame, want %d", len(fr.buf), want, want)
	}
	if r := fr.Reads.Load(); r != 5 {
		t.Errorf("%d reads for 4 frames, want 5", r)
	}
}

// TestFrameReaderRewindsWhenDrained: once every buffered frame is
// consumed the next frame lands at the front, so a frame that fits the
// buffer arrives in one read even when the last one ended past its
// middle.
func TestFrameReaderRewindsWhenDrained(t *testing.T) {
	var segs [][]byte
	for i := 0; i < 100; i++ {
		segs = append(segs, stream(3000+i))
	}
	fr := NewFrameReader(&segReader{segs: segs})
	if n := readFrames(t, fr); n != 100 {
		t.Fatalf("read %d frames, want 100", n)
	}
	if r := fr.Reads.Load(); r != 100 {
		t.Errorf("%d reads for 100 frames that each fit the buffer, want one each", r)
	}
	if len(fr.buf) != readStart {
		t.Errorf("read buffer is %d bytes, want %d", len(fr.buf), readStart)
	}
}

// TestFrameReaderDoublesOnBursts: writes of 16 frames that overflow the
// buffer double it until one write fits one read, and never past
// readChunk.
func TestFrameReaderDoublesOnBursts(t *testing.T) {
	train := make([]int, 16)
	for i := range train {
		train[i] = 1100
	}
	var segs [][]byte
	for i := 0; i < 20; i++ {
		segs = append(segs, stream(train...))
	}
	fr := NewFrameReader(&segReader{segs: segs})
	readFrames(t, fr)
	if len(fr.buf) != 32<<10 {
		t.Errorf("read buffer is %d bytes for 18 KiB trains, want %d", len(fr.buf), 32<<10)
	}
	before := fr.Reads.Load()
	fr.r = &segReader{segs: [][]byte{stream(train...), stream(train...)}}
	readFrames(t, fr)
	if r := fr.Reads.Load() - before; r != 2 {
		t.Errorf("%d reads for two trains once grown, want 2", r)
	}

	long := make([]int, 200)
	for i := range long {
		long[i] = 1000
	}
	fr = NewFrameReader(&segReader{segs: [][]byte{stream(long...), stream(long...)}})
	readFrames(t, fr)
	if len(fr.buf) != readChunk {
		t.Errorf("read buffer is %d bytes for 200 KiB trains, want readChunk (%d)", len(fr.buf), readChunk)
	}
}

// TestFrameReaderSizesGiantFramesByTheirBytes: a frame above readChunk
// grows the buffer as its bytes arrive, not on its length prefix — a
// stalled MaxFrame prefix leaves readStart — and once it is consumed the
// buffer shrinks back to readStart.
func TestFrameReaderSizesGiantFramesByTheirBytes(t *testing.T) {
	stalled := binary.LittleEndian.AppendUint32(nil, MaxFrame)
	fr := NewFrameReader(bytes.NewReader(append(stalled, frameRequest)))
	if _, _, err := fr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("stalled prefix: %v, want io.ErrUnexpectedEOF", err)
	}
	if len(fr.buf) != readStart {
		t.Errorf("read buffer is %d bytes behind a stalled MaxFrame prefix, want %d", len(fr.buf), readStart)
	}

	const giant = 200 << 10
	fr = NewFrameReader(&segReader{segs: [][]byte{stream(giant), stream(100), stream(giant, 300)}})
	sizes := make([]int, 0, 4)
	for {
		_, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) == giant && len(fr.buf) != frameHeaderLen+1+giant {
			t.Errorf("read buffer is %d bytes holding a %d-byte frame, want the frame", len(fr.buf), frameHeaderLen+1+giant)
		}
		sizes = append(sizes, len(fr.buf))
	}
	if len(sizes) != 4 || sizes[1] != readStart {
		t.Errorf("buffer sizes frame by frame %v; want readStart (%d) after the first giant frame", sizes, readStart)
	}
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
