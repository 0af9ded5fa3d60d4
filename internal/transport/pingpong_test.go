package transport_test

import (
	"bytes"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"prism/internal/kv"
	"prism/internal/transport"
)

// The live round trip against its kernel floor. BenchmarkUnixPingPong is
// the floor: two goroutines bounce a GET's wire sizes over a unix socket
// with no framing, no codec and no store. BenchmarkIssueUnix is one
// PRISM-KV GET over a served transport.Server on the same socket type.
// Their ns/op difference is what the transport, the executor and the
// client cost beyond the kernel:
//
//	go test -run '^$' -bench 'UnixPingPong|IssueUnix' ./internal/transport

// A GET of a 128-byte value on the wire, length prefixes included:
// request and reply frames (BenchmarkIssueUnix reports both).
const getRequestBytes, getReplyBytes = 76, 186

// listenUnixB is a unix listener in the benchmark's temporary directory.
func listenUnixB(b *testing.B) net.Listener {
	l, err := net.Listen("unix", filepath.Join(b.TempDir(), "prism.sock"))
	if err != nil {
		b.Fatalf("listen unix: %v", err)
	}
	return l
}

func BenchmarkUnixPingPong(b *testing.B) {
	l := listenUnixB(b)
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		sc, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer sc.Close()
		req, reply := make([]byte, getRequestBytes), make([]byte, getReplyBytes)
		for {
			if _, err := io.ReadFull(sc, req); err != nil {
				served <- nil // the client hung up
				return
			}
			if _, err := sc.Write(reply); err != nil {
				served <- err
				return
			}
		}
	}()
	cc, err := net.Dial("unix", l.Addr().String())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	req, reply := make([]byte, getRequestBytes), make([]byte, getReplyBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.Write(req); err != nil {
			b.Fatalf("write: %v", err)
		}
		if _, err := io.ReadFull(cc, reply); err != nil {
			b.Fatalf("read: %v", err)
		}
	}
	b.StopTimer()
	cc.Close()
	if err := <-served; err != nil {
		b.Fatalf("server: %v", err)
	}
}

func BenchmarkIssueUnix(b *testing.B) {
	const keys, valueSize = 1024, 128
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(keys, valueSize))
	if err != nil {
		b.Fatalf("NewServerOn: %v", err)
	}
	value := bytes.Repeat([]byte{0x5a}, valueSize)
	for k := int64(0); k < keys; k++ {
		if err := store.Load(k, value); err != nil {
			b.Fatalf("Load(%d): %v", k, err)
		}
	}
	l := listenUnixB(b)
	served := make(chan error, 1)
	go func() { served <- ts.Serve(l) }()
	var meta kv.Meta
	tc, conn, err := transport.DialMeta(l.Addr().String(), "kv", &meta)
	if err != nil {
		b.Fatalf("DialMeta: %v", err)
	}
	c := kv.NewClient(conn, meta, 1)
	_, _, out0 := tc.FlushStats()
	_, in0 := tc.ReadStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(int64(i % keys)); err != nil {
			b.Fatalf("Get: %v", err)
		}
	}
	b.StopTimer()
	_, _, out := tc.FlushStats()
	_, in := tc.ReadStats()
	b.ReportMetric(float64(out-out0)/float64(b.N), "req_B/op")
	b.ReportMetric(float64(in-in0)/float64(b.N), "reply_B/op")
	tc.Close()
	ts.Shutdown(2 * time.Second)
	if err := <-served; err != transport.ErrServerClosed {
		b.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}
