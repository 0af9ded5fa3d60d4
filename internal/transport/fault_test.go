package transport_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"prism/internal/kv"
	"prism/internal/transport"
)

// faultConn delivers a stream the way a socket may without losing a
// byte: reads return fewer bytes than asked — one at a time when
// dribbling, a random count otherwise — and every write reaches the peer
// in random pieces. Each direction has its own generator, because a
// socket's reads and writes run on different goroutines.
type faultConn struct {
	net.Conn
	dribble bool
	rr, wr  *rand.Rand
}

func newFaultConn(nc net.Conn, dribble bool, seed int64) *faultConn {
	return &faultConn{Conn: nc, dribble: dribble, rr: rand.New(rand.NewSource(seed)), wr: rand.New(rand.NewSource(^seed))}
}

func (f *faultConn) Read(p []byte) (int, error) {
	n := 1
	if !f.dribble && len(p) > 1 {
		n += f.rr.Intn(len(p))
	}
	return f.Conn.Read(p[:min(n, len(p))])
}

func (f *faultConn) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		m, err := f.Conn.Write(p[done : done+1+f.wr.Intn(len(p)-done)])
		done += m
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// newFaultKV provisions 64 slots with keys 0..47 holding 300 to 723
// bytes each: a GetBatch train of their responses overflows a small read
// buffer, and a SCAN window outgrows it.
func newFaultKV(t *testing.T) *transport.Server {
	t.Helper()
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(64, 1024))
	if err != nil {
		t.Fatalf("NewServerOn: %v", err)
	}
	for k := int64(0); k < 48; k++ {
		if err := store.Load(k, bytes.Repeat([]byte{byte(k)}, 300+int(k)*9)); err != nil {
			t.Fatalf("Load(%d): %v", k, err)
		}
	}
	return ts
}

// scanAll walks the table in 8 KiB SCAN windows on a connection of its
// own and returns every key, value and cursor it saw.
func scanAll(t *testing.T, c *transport.Client) []byte {
	t.Helper()
	cn, err := c.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	meta, err := kv.FetchMeta(cn)
	if err != nil {
		t.Fatalf("FetchMeta: %v", err)
	}
	kvc := kv.NewLiveClient(cn, meta, 2)
	var log []byte
	for start := int64(0); start < meta.NSlots; {
		next, err := kvc.Scan(start, 8<<10, func(key int64, value []byte) error {
			log = append(log, fmt.Sprintf("%d=", key)...)
			log = append(log, value...)
			return nil
		})
		if err != nil {
			t.Fatalf("Scan(%d): %v", start, err)
		}
		log = append(log, fmt.Sprintf("|%d|", next)...)
		start = next
	}
	return log
}

// TestFaultyConnMatchesPlainPipe runs GETs, PUTs, DELETEs, GetBatch and
// IssueBatch trains and a full SCAN through a net.Pipe whose two ends
// dribble or split what they carry, and demands exactly what a plain
// pipe returns; the wire check (TestMain) checks every frame on the
// way. Then no goroutine may outlive Close and Shutdown.
func TestFaultyConnMatchesPlainPipe(t *testing.T) {
	before := runtime.NumGoroutine()
	run := func(t *testing.T, wrap func(nc net.Conn, seed int64) net.Conn) []byte {
		ts := newFaultKV(t)
		cEnd, sEnd := net.Pipe()
		served := make(chan struct{})
		go func() { defer close(served); ts.ServeConn(wrap(sEnd, 1)) }()
		c, err := transport.NewClientConn(wrap(cEnd, 2))
		if err != nil {
			t.Fatalf("NewClientConn: %v", err)
		}
		log := runBatchWorkload(t, c)
		log = append(log, scanAll(t, c)...)
		c.Close()
		ts.Shutdown(2 * time.Second)
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("ServeConn did not return after Close and Shutdown")
		}
		return log
	}
	want := run(t, func(nc net.Conn, _ int64) net.Conn { return nc })
	for _, mode := range []struct {
		name    string
		dribble bool
	}{{"dribble", true}, {"short-reads-split-writes", false}} {
		t.Run(mode.name, func(t *testing.T) {
			got := run(t, func(nc net.Conn, seed int64) net.Conn { return newFaultConn(nc, mode.dribble, seed) })
			if !bytes.Equal(got, want) {
				t.Fatalf("outcomes differ from a plain pipe's:\ngot  %q\nwant %q", got, want)
			}
		})
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close and Shutdown, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
