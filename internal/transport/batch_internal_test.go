package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"prism/internal/wire"
)

// Torn-batch coverage: a server that dies mid-flush — some of a
// doorbell train answered, the rest lost with the socket — must surface
// as prompt per-chain errors on the client (the contract prismload's
// per-client error reporting and watchdog lean on), never as a hang or
// a silent partial success.

// tornServer speaks just enough of the protocol over one conn: it
// accepts one logical connection on the CONNECT that carries the hello,
// answers the first answerFrames request frames, then slams the socket
// shut.
func tornServer(t *testing.T, nc net.Conn, answerFrames int) {
	t.Helper()
	fr := NewFrameReader(nc)
	fw := NewFrameWriter(nc)
	kind, body, err := fr.Next()
	if err != nil || kind != frameConnect || string(body) != string(helloMagic) {
		t.Errorf("torn server handshake: kind=0x%02x err=%v", kind, err)
		nc.Close()
		return
	}
	if err := fw.Send(frameAccept, appendAccept(nil, 1, 0x4000, 7)); err != nil {
		t.Errorf("torn server accept: %v", err)
		nc.Close()
		return
	}
	var req wire.Request
	var resp wire.Response
	for i := 0; i < answerFrames; i++ {
		kind, body, err := fr.Next()
		if err != nil || kind != frameRequest {
			t.Errorf("torn server request %d: kind=0x%02x err=%v", i, kind, err)
			break
		}
		if err := wire.DecodeRequestAlias(&req, body); err != nil {
			t.Errorf("torn server decode %d: %v", i, err)
			break
		}
		results := make([]wire.Result, len(req.Ops))
		for j := range results {
			results[j] = wire.Result{Status: wire.StatusOK}
		}
		resp = wire.Response{Conn: req.Conn, Seq: req.Seq, Epoch: req.Epoch, Results: results}
		err = fw.StageResponse(&resp)
		if err == nil {
			err = fw.Flush()
		}
		if err != nil {
			t.Errorf("torn server respond %d: %v", i, err)
			break
		}
	}
	nc.Close() // the tear: the rest of the train is never answered
}

// readTrain posts n single-READ chains on cn as one fan-out round — one
// doorbell — and waits for the round.
func readTrain(cn *Conn, n int) ([][]wire.Result, error) {
	f := NewFanout([]Issuer{cn})
	for range n {
		f.Post(0, []wire.Op{{Code: wire.OpRead, RKey: 7, Target: 0x4000, Len: 8}})
	}
	return f.Wait()
}

func TestTornBatch(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	serverDone := make(chan struct{})
	go func() { defer close(serverDone); tornServer(t, sEnd, 1) }()

	c, err := NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	defer c.Close()
	cn, err := c.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}

	type out struct {
		res [][]wire.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := readTrain(cn, 4)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatalf("a fan-out round survived a torn batch: results %v", o.res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a fan-out round hung on a torn batch")
	}
	<-serverDone

	// The client is down: later issues fail fast instead of blocking.
	failOps := cn.Ops(1)
	failOps[0] = wire.Op{Code: wire.OpRead, RKey: 7, Target: 0x4000, Len: 8}
	if _, err := cn.Issue(failOps); err == nil {
		t.Fatal("Issue after torn batch succeeded, want transport error")
	}
	if c.Err() == nil {
		t.Fatal("client has no recorded error after torn batch")
	}
}

// TestTornBatchPartial tears the socket after answering part of a
// longer train and checks the whole batch reports the failure (partial
// results are never presented as success).
func TestTornBatchPartial(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	serverDone := make(chan struct{})
	go func() { defer close(serverDone); tornServer(t, sEnd, 3) }()

	c, err := NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	defer c.Close()
	cn, err := c.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := readTrain(cn, 8)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a fan-out round reported success on a partially answered train")
		}
		if errors.Is(err, ErrClientClosed) {
			t.Fatalf("the round's error = %v, want the transport failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a fan-out round hung on a partially answered train")
	}
	<-serverDone
}
