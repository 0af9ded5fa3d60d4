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
// client cost beyond the kernel. BenchmarkScanUnix prices a 32 KiB SCAN
// window on the same path, where per-byte work dominates:
//
//	go test -run '^$' -bench 'UnixPingPong|IssueUnix|ScanUnix' ./internal/transport

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
	const keys = 1024
	tc, c, stop := serveKVUnix(b, keys)
	defer stop()
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
}

// BenchmarkScanUnix is the client half of a SCAN (ROADMAP 1(b)) on the
// same socket type: one 32 KiB PRISM-KV SCAN window per op, the next one
// from the cursor it returns, every entry decoded and visited.
func BenchmarkScanUnix(b *testing.B) {
	const keys, budget = 1024, 32 << 10
	tc, c, stop := serveKVUnix(b, keys)
	defer stop()
	_, in0 := tc.ReadStats()
	visited, cursor := 0, int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := c.Scan(cursor, budget, func(int64, []byte) error {
			visited++
			return nil
		})
		if err != nil {
			b.Fatalf("Scan(%d): %v", cursor, err)
		}
		if cursor = next; cursor >= keys {
			cursor = 0
		}
	}
	b.StopTimer()
	_, in := tc.ReadStats()
	b.ReportMetric(float64(in-in0)/float64(b.N), "reply_B/op")
	b.ReportMetric(float64(visited)/float64(b.N), "entries/op")
}

// serveKVUnix serves a PRISM-KV store of keys 128-byte values on a unix
// socket and connects one client to it; stop closes both.
func serveKVUnix(b *testing.B, keys int64) (*transport.Client, *kv.Client, func()) {
	const valueSize = 128
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
	return tc, kv.NewClient(conn, meta, 1), func() {
		tc.Close()
		ts.Shutdown(2 * time.Second)
		if err := <-served; err != transport.ErrServerClosed {
			b.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	}
}
