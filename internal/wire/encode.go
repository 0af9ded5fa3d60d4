package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"prism/internal/memory"
)

// Decode errors.
var (
	ErrShortMessage = errors.New("wire: truncated message")
	ErrBadMessage   = errors.New("wire: malformed message")
)

const maxInline = 1 << 20 // sanity cap on inline payload during decode

func putU64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

func putU32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func putBytes(b []byte, p []byte) []byte {
	b = putU32(b, uint32(len(p)))
	return append(b, p...)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.b) {
		r.err = ErrShortMessage
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.err = ErrShortMessage
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.err = ErrShortMessage
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// bytes decodes a length-prefixed byte string as a view borrowing the
// input buffer (capacity-clamped so appends cannot scribble past it). A
// zero-length string decodes to nil.
func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if n > maxInline || r.off+int(n) > len(r.b) {
		r.err = ErrShortMessage
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return out
}

// AppendRequest appends req's serialization to dst and returns the
// extended buffer (append-style, so callers bring their own scratch; the
// encoded length is RequestWireSize). The layout is fixed-width headers
// plus length-prefixed byte strings; field order matches decode.
func AppendRequest(dst []byte, req *Request) []byte {
	b := putU64(dst, req.Conn)
	b = putU64(b, req.Seq)
	b = putU32(b, req.Epoch)
	b = putU32(b, uint32(len(req.Ops)))
	for i := range req.Ops {
		op := &req.Ops[i]
		b = append(b, byte(op.Code), byte(op.Flags), byte(op.Mode))
		b = putU32(b, uint32(op.RKey))
		b = putU64(b, uint64(op.Target))
		b = putU64(b, op.Len)
		b = putBytes(b, op.Data)
		b = putBytes(b, op.CompareMask)
		b = putBytes(b, op.SwapMask)
		b = putU32(b, op.FreeList)
		b = putU64(b, uint64(op.RedirectTo))
	}
	return b
}

func inlineLen(req *Request) int {
	n := 0
	for i := range req.Ops {
		// per-op fixed bytes: code+flags+mode (3) + rkey (4) + target (8) +
		// len (8) + three 4-byte length prefixes + freelist (4) + redirect (8)
		n += len(req.Ops[i].Data) + len(req.Ops[i].CompareMask) + len(req.Ops[i].SwapMask) + 47
	}
	return n
}

// DecodeRequestAlias parses b into req without copying payloads: each
// op's Data/CompareMask/SwapMask alias b, and req.Ops reuses its prior
// capacity. The views are valid only while b's backing memory is — for
// transport buffers, until the owning arena slot or pooled object is
// recycled (its epoch bumps, see Request.Epoch). Callers that retain a
// payload across that lifetime must copy it out.
func DecodeRequestAlias(req *Request, b []byte) error {
	r := &reader{b: b}
	req.Conn, req.Seq, req.Epoch = r.u64(), r.u64(), r.u32()
	n := r.u32()
	if r.err != nil {
		return r.err
	}
	if n > 64 {
		return fmt.Errorf("%w: chain of %d ops", ErrBadMessage, n)
	}
	if req.Ops == nil || uint32(cap(req.Ops)) < n {
		req.Ops = make([]Op, n)
	} else {
		req.Ops = req.Ops[:n]
	}
	for i := range req.Ops {
		op := &req.Ops[i]
		op.Code = OpCode(r.u8())
		op.Flags = Flags(r.u8())
		op.Mode = CASMode(r.u8())
		op.RKey = memory.RKey(r.u32())
		op.Target = memory.Addr(r.u64())
		op.Len = r.u64()
		op.Data = r.bytes()
		op.CompareMask = r.bytes()
		op.SwapMask = r.bytes()
		op.FreeList = r.u32()
		op.RedirectTo = memory.Addr(r.u64())
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(b)-r.off)
	}
	return nil
}

// The response layout: a ResponseHeaderLen header (conn u64 | seq u64 |
// epoch u32 | result count u32), then per result a ResultHeaderLen header
// (status u8 | addr u64 | payload length u32) followed by the payload.
// AppendResponse encodes a built Response with the two helpers below; the
// live server uses the same helpers to encode in place, reserving each
// result header, executing the op straight into the bytes behind it, and
// patching the header once the result is known.
const (
	ResponseHeaderLen = 8 + 8 + 4 + 4
	ResultHeaderLen   = 1 + 8 + 4
)

// AppendResponseHeader appends the header of a response carrying n
// results.
func AppendResponseHeader(dst []byte, conn, seq uint64, epoch uint32, n int) []byte {
	b := putU64(dst, conn)
	b = putU64(b, seq)
	b = putU32(b, epoch)
	return putU32(b, uint32(n))
}

// PutResultHeader writes res's header — status, addr and the length of
// the payload that follows it — into b[:ResultHeaderLen].
func PutResultHeader(b []byte, res *Result) {
	_ = b[ResultHeaderLen-1]
	b[0] = byte(res.Status)
	binary.LittleEndian.PutUint64(b[1:], uint64(res.Addr))
	binary.LittleEndian.PutUint32(b[9:], uint32(len(res.Data)))
}

// AppendResponse appends resp's serialization to dst and returns the
// extended buffer (the encoded length is ResponseWireSize).
func AppendResponse(dst []byte, resp *Response) []byte {
	b := AppendResponseHeader(dst, resp.Conn, resp.Seq, resp.Epoch, len(resp.Results))
	for i := range resp.Results {
		res := &resp.Results[i]
		var h [ResultHeaderLen]byte
		PutResultHeader(h[:], res)
		b = append(b, h[:]...)
		b = append(b, res.Data...)
	}
	return b
}

// DecodeResponseAlias parses b into resp without copying payloads: each
// result's Data aliases b, and resp.Results reuses its prior capacity.
// The same lifetime rule as DecodeRequestAlias applies: the views die
// when b's owner (arena slot / pooled object) recycles it.
func DecodeResponseAlias(resp *Response, b []byte) error {
	r := &reader{b: b}
	resp.Conn, resp.Seq, resp.Epoch = r.u64(), r.u64(), r.u32()
	n := r.u32()
	if r.err != nil {
		return r.err
	}
	if n > 64 {
		return fmt.Errorf("%w: %d results", ErrBadMessage, n)
	}
	if resp.Results == nil || uint32(cap(resp.Results)) < n {
		resp.Results = make([]Result, n)
	} else {
		resp.Results = resp.Results[:n]
	}
	for i := range resp.Results {
		res := &resp.Results[i]
		res.Status = Status(r.u8())
		res.Addr = memory.Addr(r.u64())
		res.Data = r.bytes()
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(b)-r.off)
	}
	return nil
}

// RequestWireSize returns the encoded size of req without materializing the
// encoding (used on hot paths for bandwidth accounting).
func RequestWireSize(req *Request) int {
	return 24 + inlineLen(req)
}

// ResponseWireSize returns the encoded size of resp.
func ResponseWireSize(resp *Response) int {
	n := ResponseHeaderLen
	for i := range resp.Results {
		n += ResultHeaderLen + len(resp.Results[i].Data)
	}
	return n
}
