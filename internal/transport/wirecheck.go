package transport

import (
	"bytes"
	"fmt"

	"prism/internal/wire"
)

// Live wire-check scratch (see SetWireCheck). Senders round-trip every
// outgoing message through the codec and compare fields; receivers
// re-encode every alias-decoded message and compare it byte-for-byte
// against the frame on the wire, proving the peer sent the canonical
// encoding and the alias decoders lost nothing. One WireCheckState per
// socket side, so checking never shares buffers across goroutines.
type WireCheckState struct {
	buf    []byte
	req    wire.Request
	resp   wire.Response
	staged wire.Response // the live server's response being staged, as noted
}

// CheckRequestRoundTrip verifies req encodes to RequestWireSize bytes
// and survives encode → alias-decode with every field intact, panicking
// otherwise. Client side, before send.
func (ws *WireCheckState) CheckRequestRoundTrip(req *wire.Request) {
	ws.buf = wire.AppendRequest(ws.buf[:0], req)
	if len(ws.buf) != wire.RequestWireSize(req) {
		panic(fmt.Sprintf("transport: wire check: encoded request is %d bytes, RequestWireSize says %d",
			len(ws.buf), wire.RequestWireSize(req)))
	}
	if err := wire.DecodeRequestAlias(&ws.req, ws.buf); err != nil {
		panic(fmt.Sprintf("transport: wire check: request round trip: %v", err))
	}
	if !sameRequest(req, &ws.req) {
		panic("transport: wire check: request mismatch after round trip")
	}
}

// checkRequestBytes verifies that re-encoding the alias-decoded req
// reproduces the received frame exactly — the peer's bytes are
// canonical and the decode lost nothing. Server side, after decode.
func (ws *WireCheckState) checkRequestBytes(req *wire.Request, frame []byte) {
	ws.buf = wire.AppendRequest(ws.buf[:0], req)
	if !bytes.Equal(ws.buf, frame) {
		panic("transport: wire check: received request bytes are not the canonical encoding")
	}
	if len(frame) != wire.RequestWireSize(req) {
		panic(fmt.Sprintf("transport: wire check: request frame is %d bytes, RequestWireSize says %d",
			len(frame), wire.RequestWireSize(req)))
	}
}

// noteResult records the result of a response's op i as the op
// produced it — its payload copied before anything else is staged behind
// it — for checkStagedResponse. Live server side.
func (ws *WireCheckState) noteResult(i int, res *wire.Result) {
	ws.staged.Results = append(ws.staged.Results[:i],
		wire.Result{Status: res.Status, Addr: res.Addr, Data: bytes.Clone(res.Data)})
}

// checkStagedResponse verifies that the response to req the live server
// staged in place — body, its frame after the kind byte — is byte for
// byte what AppendResponse encodes for the noted results, and
// ResponseWireSize long. Live server side, before send.
func (ws *WireCheckState) checkStagedResponse(req *wire.Request, body []byte) {
	resp := &ws.staged
	resp.Conn, resp.Seq, resp.Epoch = req.Conn, req.Seq, req.Epoch
	if len(resp.Results) != len(req.Ops) {
		panic(fmt.Sprintf("transport: wire check: %d results staged for %d ops", len(resp.Results), len(req.Ops)))
	}
	ws.buf = wire.AppendResponse(ws.buf[:0], resp)
	if !bytes.Equal(ws.buf, body) {
		panic("transport: wire check: response staged in place is not the canonical encoding of its results")
	}
	if len(body) != wire.ResponseWireSize(resp) {
		panic(fmt.Sprintf("transport: wire check: staged response is %d bytes, ResponseWireSize says %d",
			len(body), wire.ResponseWireSize(resp)))
	}
}

// CheckResponseRoundTrip verifies resp encodes to ResponseWireSize
// bytes and survives encode → alias-decode intact, panicking otherwise.
// Simulated NIC side, before send.
func (ws *WireCheckState) CheckResponseRoundTrip(resp *wire.Response) {
	ws.buf = wire.AppendResponse(ws.buf[:0], resp)
	if len(ws.buf) != wire.ResponseWireSize(resp) {
		panic(fmt.Sprintf("transport: wire check: encoded response is %d bytes, ResponseWireSize says %d",
			len(ws.buf), wire.ResponseWireSize(resp)))
	}
	if err := wire.DecodeResponseAlias(&ws.resp, ws.buf); err != nil {
		panic(fmt.Sprintf("transport: wire check: response round trip: %v", err))
	}
	if !sameResponse(resp, &ws.resp) {
		panic("transport: wire check: response mismatch after round trip")
	}
}

// checkResponseBytes verifies that re-encoding the alias-decoded resp
// reproduces the received frame exactly. Client side, after decode.
func (ws *WireCheckState) checkResponseBytes(resp *wire.Response, frame []byte) {
	ws.buf = wire.AppendResponse(ws.buf[:0], resp)
	if !bytes.Equal(ws.buf, frame) {
		panic("transport: wire check: received response bytes are not the canonical encoding")
	}
	if len(frame) != wire.ResponseWireSize(resp) {
		panic(fmt.Sprintf("transport: wire check: response frame is %d bytes, ResponseWireSize says %d",
			len(frame), wire.ResponseWireSize(resp)))
	}
}

func sameRequest(a, b *wire.Request) bool {
	if a.Conn != b.Conn || a.Seq != b.Seq || a.Epoch != b.Epoch || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		x, y := &a.Ops[i], &b.Ops[i]
		if x.Code != y.Code || x.Flags != y.Flags || x.Mode != y.Mode ||
			x.RKey != y.RKey || x.Target != y.Target || x.Len != y.Len ||
			x.FreeList != y.FreeList || x.RedirectTo != y.RedirectTo ||
			!bytes.Equal(x.Data, y.Data) ||
			!bytes.Equal(x.CompareMask, y.CompareMask) ||
			!bytes.Equal(x.SwapMask, y.SwapMask) {
			return false
		}
	}
	return true
}

func sameResponse(a, b *wire.Response) bool {
	if a.Conn != b.Conn || a.Seq != b.Seq || a.Epoch != b.Epoch || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		x, y := &a.Results[i], &b.Results[i]
		if x.Status != y.Status || x.Addr != y.Addr || !bytes.Equal(x.Data, y.Data) {
			return false
		}
	}
	return true
}
