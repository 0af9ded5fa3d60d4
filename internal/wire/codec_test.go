package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"prism/internal/memory"
)

func sampleResponse() *Response {
	return &Response{
		Conn:  7,
		Seq:   42,
		Epoch: 3,
		Results: []Result{
			{Status: StatusOK, Data: []byte("value bytes")},
			{Status: StatusCASFailed, Data: bytes.Repeat([]byte{1}, 24)},
			{Status: StatusNotExecuted},
			{Status: StatusNAKAccess},
			{Status: StatusRNR},
			{Status: StatusUnsupported},
			{Status: StatusOK, Addr: 0xbeef},
			// An RPC reply rides the result slot.
			{Status: StatusOK, Data: []byte("rpc reply")},
			// CHASE/SCAN terminations: Addr is the resumption cursor.
			{Status: StatusNotFound, Addr: 0x1c0},
			{Status: StatusStepLimit, Addr: 17},
		},
	}
}

// Property: decode(encode(x)) == x for arbitrary multi-op responses,
// including error results carrying no payload — the response-side mirror
// of TestQuickRequestRoundtrip.
func TestQuickResponseRoundtrip(t *testing.T) {
	f := func(conn, seq uint64, epoch uint32, statuses []uint8, addr uint64, data []byte) bool {
		if len(statuses) > 8 {
			statuses = statuses[:8]
		}
		resp := &Response{Conn: conn, Seq: seq, Epoch: epoch, Results: []Result{}}
		for i, s := range statuses {
			res := Result{Status: Status(s % (uint8(StatusStepLimit) + 1))}
			if res.Status == StatusOK {
				res.Addr = memory.Addr(addr + uint64(i))
				if len(data) > 0 {
					res.Data = data
				}
			}
			resp.Results = append(resp.Results, res)
		}
		b := EncodeResponse(resp)
		got, err := DecodeResponse(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(resp, got) && ResponseWireSize(resp) == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// Truncating an encoded message at any byte offset must fail decoding —
// no prefix of a valid message is itself valid.
func TestDecodeTruncatedEveryOffset(t *testing.T) {
	reqBytes := EncodeRequest(sampleRequest())
	for cut := 0; cut < len(reqBytes); cut++ {
		if _, err := DecodeRequest(reqBytes[:cut]); err == nil {
			t.Fatalf("request decode of %d-byte prefix succeeded", cut)
		}
	}
	respBytes := EncodeResponse(sampleResponse())
	for cut := 0; cut < len(respBytes); cut++ {
		if _, err := DecodeResponse(respBytes[:cut]); err == nil {
			t.Fatalf("response decode of %d-byte prefix succeeded", cut)
		}
	}
}

func TestResponseDecodeTrailingGarbage(t *testing.T) {
	b := append(EncodeResponse(sampleResponse()), 0x00)
	if _, err := DecodeResponse(b); err == nil {
		t.Fatal("decode with trailing garbage succeeded")
	}
}

func TestResponseDecodeHugeCountRejected(t *testing.T) {
	var b []byte
	b = putU64(b, 1)
	b = putU64(b, 1)
	b = putU32(b, 0)
	b = putU32(b, 1<<30)
	if _, err := DecodeResponse(b); err == nil {
		t.Fatal("absurd result count accepted")
	}
}

// Alias decoding must agree field-for-field with copying decoding, borrow
// the input buffer for payloads, and reuse the destination's op storage.
func TestAliasDecodeRequest(t *testing.T) {
	req := sampleRequest()
	b := EncodeRequest(req)
	var alias Request
	if err := DecodeRequestAlias(&alias, b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, &alias) {
		t.Fatalf("alias decode mismatch:\n in: %+v\nout: %+v", req, &alias)
	}
	// Payloads are views into b, not copies.
	for i := range alias.Ops {
		d := alias.Ops[i].Data
		if len(d) == 0 {
			continue
		}
		if !sliceWithin(d, b) {
			t.Fatalf("op %d Data does not alias the input buffer", i)
		}
		// Capacity-clamped: appending to the view must not scribble on b.
		if cap(d) != len(d) {
			t.Fatalf("op %d Data view has slack capacity %d > %d", i, cap(d), len(d))
		}
	}
	// Second decode into the same struct reuses Ops storage.
	prev := &alias.Ops[0]
	if err := DecodeRequestAlias(&alias, b); err != nil {
		t.Fatal(err)
	}
	if &alias.Ops[0] != prev {
		t.Fatal("alias decode reallocated Ops despite sufficient capacity")
	}
}

func TestAliasDecodeResponse(t *testing.T) {
	resp := sampleResponse()
	b := EncodeResponse(resp)
	var alias Response
	if err := DecodeResponseAlias(&alias, b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, &alias) {
		t.Fatalf("alias decode mismatch:\n in: %+v\nout: %+v", resp, &alias)
	}
	for i := range alias.Results {
		d := alias.Results[i].Data
		if len(d) > 0 && !sliceWithin(d, b) {
			t.Fatalf("result %d Data does not alias the input buffer", i)
		}
	}
	prev := &alias.Results[0]
	if err := DecodeResponseAlias(&alias, b); err != nil {
		t.Fatal(err)
	}
	if &alias.Results[0] != prev {
		t.Fatal("alias decode reallocated Results despite sufficient capacity")
	}
}

// AppendRequest/AppendResponse extend the destination rather than
// overwrite it, and produce the same bytes as the Encode forms.
func TestAppendExtendsDst(t *testing.T) {
	req, resp := sampleRequest(), sampleResponse()
	prefix := []byte{0xAA, 0xBB}
	gotReq := AppendRequest(append([]byte(nil), prefix...), req)
	if !bytes.Equal(gotReq[:2], prefix) || !bytes.Equal(gotReq[2:], EncodeRequest(req)) {
		t.Fatal("AppendRequest did not extend dst with the canonical encoding")
	}
	gotResp := AppendResponse(append([]byte(nil), prefix...), resp)
	if !bytes.Equal(gotResp[:2], prefix) || !bytes.Equal(gotResp[2:], EncodeResponse(resp)) {
		t.Fatal("AppendResponse did not extend dst with the canonical encoding")
	}
}

// sliceWithin reports whether s's backing memory lies inside b.
func sliceWithin(s, b []byte) bool {
	if len(s) == 0 || len(b) == 0 {
		return false
	}
	for i := range b {
		if &b[i] == &s[0] {
			return true
		}
	}
	return false
}

// FuzzDecodeRequest checks that request decoding never panics and that any
// successfully decoded message re-encodes to exactly the input bytes (the
// codec is canonical).
func FuzzDecodeRequest(f *testing.F) {
	seed := EncodeRequest(sampleRequest())
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(append(append([]byte(nil), seed...), 0xFF))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(b)
		if err != nil {
			return
		}
		if got := EncodeRequest(req); !bytes.Equal(got, b) {
			t.Fatalf("re-encode differs from input:\n in: %x\nout: %x", b, got)
		}
		var alias Request
		if err := DecodeRequestAlias(&alias, b); err != nil {
			t.Fatalf("alias decode failed where copy decode succeeded: %v", err)
		}
		if !reflect.DeepEqual(req, &alias) {
			t.Fatal("alias and copy decodes disagree")
		}
	})
}

// FuzzDecodeResponse is the response-side mirror of FuzzDecodeRequest.
func FuzzDecodeResponse(f *testing.F) {
	seed := EncodeResponse(sampleResponse())
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(append(append([]byte(nil), seed...), 0x00))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := DecodeResponse(b)
		if err != nil {
			return
		}
		if got := EncodeResponse(resp); !bytes.Equal(got, b) {
			t.Fatalf("re-encode differs from input:\n in: %x\nout: %x", b, got)
		}
		var alias Response
		if err := DecodeResponseAlias(&alias, b); err != nil {
			t.Fatalf("alias decode failed where copy decode succeeded: %v", err)
		}
		if !reflect.DeepEqual(resp, &alias) {
			t.Fatal("alias and copy decodes disagree")
		}
	})
}
