// Package transport is the pluggable transport layer under the PRISM
// verb datapath. The datapath has three transports:
//
//   - sim: the discrete-event fabric (internal/fabric). Messages travel
//     as *wire.Request/*wire.Response pointers and bandwidth is charged
//     from RequestWireSize/ResponseWireSize; internal/rdma owns the
//     endpoints and layers the deployment cost models on top.
//   - tcp and unix: real stream sockets. Messages travel as canonical
//     wire bytes (internal/wire append encoders / alias decoders) under
//     the length-prefixed framing in this package; Server and Client in
//     this package own the endpoints.
//
// What the transports share lives here:
//
//   - Window: the issue/complete machinery extracted from the simulated
//     client — pooled epoch-stamped request records, connection-owned op
//     scratch, and the strict send window that queues requests locally
//     until a slot frees. The sim client parameterizes it with the
//     parked process or fan-out a response goes to and a retransmit
//     timer; the live client with a channel waiter and a result-copy
//     arena.
//   - FrameReader/FrameWriter: the stream framer. Frames are encoded
//     into and alias-decoded out of per-connection reusable buffers, so
//     the 0-alloc encode path of DESIGN.md §11 survives the socket hop.
//   - RPCHandler: the server-side RPC hook (single-op OpSend requests),
//     shared by the simulated and live servers so one application (e.g.
//     PRISM-KV reclamation) provisions on either.
//
// The live datapath is doorbell-batched end to end (DESIGN.md §12):
// client issuers stage frames into a per-socket flusher that group-
// commits a whole train per write syscall, the server drains every
// buffered frame per wakeup under one guard acquisition and coalesces
// the responses into one flush, and both sides count syscalls vs the
// frames they carried (frames_per_write, bytes_per_syscall,
// batch_len). Coalescing changes which syscall carries a frame, never
// the frame's bytes or per-connection order.
package transport

import (
	"sync/atomic"
	"time"
)

// RPCHandler serves send/receive RPCs: single-op OpSend requests carry
// an opaque payload to the server CPU and the reply rides the result
// slot. extraCPU is simulated server CPU time beyond the base RPC cost;
// live servers ignore it. The payload aliases transport-owned scratch
// and must not be retained; the reply buffer is handed to the transport
// and must not be reused by the handler until the next call.
type RPCHandler func(payload []byte) (reply []byte, extraCPU time.Duration)

// Wire-check mode for the live transports. With it enabled, every frame
// is verified against the canonical codec: requests and responses are
// round-tripped (encode, alias-decode, field-compare) before send, and
// received frames are re-encoded and compared byte-for-byte against the
// bytes on the wire — proving on live traffic that both peers speak the
// canonical encoding and that the alias decoders lose nothing. The
// simulated fabric's equivalent is rdma.SetWireCheck, which forwards
// here so one switch covers every transport.
var wireCheck atomic.Bool

// SetWireCheck toggles wire-check verification for subsequently
// transmitted and received live-transport messages.
func SetWireCheck(on bool) { wireCheck.Store(on) }

// WireCheckEnabled reports whether live wire-check mode is on.
func WireCheckEnabled() bool { return wireCheck.Load() }
