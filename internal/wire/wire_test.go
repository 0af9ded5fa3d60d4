package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"prism/internal/memory"
)

func sampleRequest() *Request {
	return &Request{
		Conn: 7,
		Seq:  42,
		Ops: []Op{
			{
				Code:   OpRead,
				Flags:  FlagTargetIndirect | FlagBounded,
				RKey:   3,
				Target: 0x1000,
				Len:    512,
			},
			{
				Code:       OpAllocate,
				Flags:      FlagConditional | FlagRedirect,
				Data:       []byte("payload"),
				FreeList:   2,
				RedirectTo: 0x2000,
			},
			{
				Code:        OpCAS,
				Mode:        CASGt,
				RKey:        3,
				Target:      0x3000,
				Data:        bytes.Repeat([]byte{0xFF}, 16),
				CompareMask: bytes.Repeat([]byte{0xFF}, 16),
				SwapMask:    bytes.Repeat([]byte{0x0F}, 16),
			},
			{
				// CHASE: a 32-byte program header plus an 8-byte match
				// operand rides Data; the predicate reuses Mode/CompareMask.
				Code:        OpChase,
				RKey:        3,
				Target:      0x4000,
				Len:         256,
				Mode:        CASEq,
				Data:        append(bytes.Repeat([]byte{0xA5}, 32), bytes.Repeat([]byte{0x42}, 8)...),
				CompareMask: bytes.Repeat([]byte{0xFF}, 8),
			},
			{
				// SCAN: header only (no match operand), byte budget in Len.
				Code:   OpScan,
				RKey:   3,
				Target: 0x5000,
				Len:    4096,
				Data:   bytes.Repeat([]byte{0x5A}, 32),
			},
			{
				// An RPC: the payload goes to the server CPU.
				Code: OpSend,
				Data: []byte("rpc request"),
			},
		},
	}
}

// decodeRequest alias-decodes b into a fresh Request.
func decodeRequest(b []byte) (*Request, error) {
	req := new(Request)
	return req, DecodeRequestAlias(req, b)
}

// decodeResponse alias-decodes b into a fresh Response.
func decodeResponse(b []byte) (*Response, error) {
	resp := new(Response)
	return resp, DecodeResponseAlias(resp, b)
}

func TestRequestRoundtrip(t *testing.T) {
	req := sampleRequest()
	b := AppendRequest(nil, req)
	got, err := decodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Fatalf("roundtrip mismatch:\n in: %+v\nout: %+v", req, got)
	}
}

func TestRequestWireSizeMatchesEncoding(t *testing.T) {
	req := sampleRequest()
	if got, want := RequestWireSize(req), len(AppendRequest(nil, req)); got != want {
		t.Fatalf("RequestWireSize = %d, encoded length = %d", got, want)
	}
}

func TestResponseRoundtrip(t *testing.T) {
	resp := &Response{
		Seq: 42,
		Results: []Result{
			{Status: StatusOK, Data: []byte("value")},
			{Status: StatusCASFailed, Data: bytes.Repeat([]byte{1}, 16)},
			{Status: StatusNotExecuted},
			{Status: StatusOK, Addr: 0xbeef},
		},
	}
	b := AppendResponse(nil, resp)
	got, err := decodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, got) {
		t.Fatalf("roundtrip mismatch:\n in: %+v\nout: %+v", resp, got)
	}
	if ResponseWireSize(resp) != len(b) {
		t.Fatalf("ResponseWireSize = %d, encoded = %d", ResponseWireSize(resp), len(b))
	}
}

func TestDecodeTruncated(t *testing.T) {
	b := AppendRequest(nil, sampleRequest())
	for cut := 0; cut < len(b); cut += 3 {
		if _, err := decodeRequest(b[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	b := append(AppendRequest(nil, sampleRequest()), 0xFF)
	if _, err := decodeRequest(b); err == nil {
		t.Fatal("decode with trailing garbage succeeded")
	}
}

func TestDecodeHugeChainRejected(t *testing.T) {
	var b []byte
	b = putU64(b, 1)
	b = putU64(b, 1)
	b = putU32(b, 1<<30)
	if _, err := decodeRequest(b); err == nil {
		t.Fatal("absurd op count accepted")
	}
}

// Property: decode(encode(x)) == x for arbitrary single-op requests of
// every opcode, with enhanced-CAS modes and masks.
func TestQuickRequestRoundtrip(t *testing.T) {
	f := func(conn, seq uint64, code, flags, mode uint8, rkey uint32, target uint64, ln uint16, data, mask []byte, freeList uint32, redirect uint64) bool {
		req := &Request{
			Conn: conn,
			Seq:  seq,
			Ops: []Op{{
				Code:       OpCode(code%uint8(OpScan) + 1),
				Flags:      Flags(flags) & (FlagTargetIndirect | FlagDataIndirect | FlagBounded | FlagConditional | FlagRedirect),
				Mode:       CASMode(mode % 3),
				RKey:       memory.RKey(rkey),
				Target:     memory.Addr(target),
				Len:        uint64(ln),
				Data:       data,
				FreeList:   freeList,
				RedirectTo: memory.Addr(redirect),
			}},
		}
		if op := &req.Ops[0]; op.Code == OpCAS && len(mask) > 0 {
			op.CompareMask, op.SwapMask = mask, bytes.Repeat([]byte{0x0F}, len(mask))
		}
		if len(req.Ops[0].Data) == 0 {
			req.Ops[0].Data = nil
		}
		b := AppendRequest(nil, req)
		got, err := decodeRequest(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(req, got) && RequestWireSize(req) == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz-ish property: decoding random bytes never panics.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = decodeRequest(b)
		_, _ = decodeResponse(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestFlagsHas(t *testing.T) {
	f := FlagTargetIndirect | FlagConditional
	if !f.Has(FlagTargetIndirect) || !f.Has(FlagConditional) {
		t.Fatal("Has missed set flags")
	}
	if f.Has(FlagRedirect) {
		t.Fatal("Has reported unset flag")
	}
	if f.Has(FlagTargetIndirect | FlagRedirect) {
		t.Fatal("Has must require all bits")
	}
}

func TestStatusOK(t *testing.T) {
	if !StatusOK.OK() {
		t.Fatal("StatusOK not OK")
	}
	for _, s := range []Status{StatusCASFailed, StatusNotExecuted, StatusNAKAccess, StatusRNR, StatusUnsupported} {
		if s.OK() {
			t.Fatalf("%v reported OK", s)
		}
	}
}

func TestStringers(t *testing.T) {
	if OpRead.String() != "READ" || OpAllocate.String() != "ALLOCATE" {
		t.Fatal("OpCode stringer wrong")
	}
	if CASGt.String() != "GT" {
		t.Fatal("CASMode stringer wrong")
	}
	if StatusRNR.String() != "RNR" {
		t.Fatal("Status stringer wrong")
	}
}
