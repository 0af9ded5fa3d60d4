package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"

	"prism/internal/wire"
)

// The checking conn: tests wrap a server socket in it to prove, on the
// traffic the test drives, that every request the server reads and every
// response it writes is the canonical encoding. Each request and response
// frame must decode, re-encode to exactly its bytes and be as long as
// RequestWireSize/ResponseWireSize says, and each response must answer
// the socket's oldest unanswered request with one result per op. That
// holds the client's encoder, the alias decoders and the server's
// in-place response staging to wire.AppendRequest/AppendResponse. Control
// frames pass unchecked.

// CheckedConn wraps nc, the server's end of a socket, so every frame the
// server reads or writes on it is checked; a bad frame fails t.
func CheckedConn(t testing.TB, nc net.Conn) net.Conn {
	return &checkConn{Conn: nc, t: t}
}

// CheckedListener wraps l so every socket it accepts is a CheckedConn.
func CheckedListener(t testing.TB, l net.Listener) net.Listener {
	return checkListener{Listener: l, t: t}
}

type checkListener struct {
	net.Listener
	t testing.TB
}

func (l checkListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return CheckedConn(l.t, nc), nil
}

type checkConn struct {
	net.Conn
	t testing.TB

	mu      sync.Mutex // the server's reads and writes may run on two goroutines
	in, out []byte     // bytes of frames not yet complete, per direction
	asked   []askedReq // requests read and not yet answered, oldest first
	req     wire.Request
	resp    wire.Response
	enc     []byte
}

// askedReq is what a response must echo of its request.
type askedReq struct {
	conn, seq uint64
	epoch     uint32
	ops       int
}

func (c *checkConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.feed(&c.in, p[:n])
	return n, err
}

func (c *checkConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.feed(&c.out, p[:n])
	return n, err
}

// feed appends p to one direction's stream and checks every frame it
// completes.
func (c *checkConn) feed(pend *[]byte, p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	*pend = append(*pend, p...)
	for b := *pend; len(b) >= frameHeaderLen; b = *pend {
		n := frameHeaderLen + int(binary.LittleEndian.Uint32(b))
		if n == frameHeaderLen {
			c.t.Errorf("checked conn: a frame with a zero length prefix")
			*pend = b[:0]
			return
		}
		if len(b) < n {
			return
		}
		if err := c.check(b[frameHeaderLen], b[frameHeaderLen+1:n]); err != nil {
			c.t.Errorf("checked conn: %v", err)
		}
		*pend = b[:copy(b, b[n:])]
	}
}

func (c *checkConn) check(kind byte, body []byte) error {
	var size int
	switch kind {
	case frameRequest:
		if err := wire.DecodeRequestAlias(&c.req, body); err != nil {
			return fmt.Errorf("request does not decode: %v", err)
		}
		c.enc, size = wire.AppendRequest(c.enc[:0], &c.req), wire.RequestWireSize(&c.req)
		c.asked = append(c.asked, askedReq{c.req.Conn, c.req.Seq, c.req.Epoch, len(c.req.Ops)})
	case frameResponse:
		if err := wire.DecodeResponseAlias(&c.resp, body); err != nil {
			return fmt.Errorf("response does not decode: %v", err)
		}
		c.enc, size = wire.AppendResponse(c.enc[:0], &c.resp), wire.ResponseWireSize(&c.resp)
		if len(c.asked) == 0 {
			return fmt.Errorf("response to conn %d seq %d answers no request", c.resp.Conn, c.resp.Seq)
		}
		q := c.asked[0]
		c.asked = c.asked[1:]
		if got := (askedReq{c.resp.Conn, c.resp.Seq, c.resp.Epoch, len(c.resp.Results)}); got != q {
			return fmt.Errorf("response (conn, seq, epoch, results) = %v answers request %v", got, q)
		}
	default:
		return nil
	}
	if !bytes.Equal(c.enc, body) {
		return fmt.Errorf("frame 0x%02x is not the canonical encoding of what it decodes to:\n got  %x\n want %x", kind, body, c.enc)
	}
	if size != len(body) {
		return fmt.Errorf("frame 0x%02x is %d bytes, its wire size says %d", kind, len(body), size)
	}
	return nil
}
