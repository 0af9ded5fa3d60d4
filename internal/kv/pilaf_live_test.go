package kv

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"prism/internal/transport"
)

// dialPilaf opens one socket to the Pilaf store at addr and returns the
// protocol client over a connection on it.
func dialPilaf(t testing.TB, addr string, meta PilafMeta) *pilafCore {
	t.Helper()
	tc, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tc.Close() })
	conn, err := tc.Connect()
	if err != nil {
		t.Fatal(err)
	}
	return &pilafCore{conn: conn, meta: meta}
}

// The race Pilaf's CRCs exist for, on a live server: a PUT's four stores
// each take the space guard on their own, so a GET on another socket can
// read between two of them. Every value a GET returns must pass the
// checks and be a version some PUT wrote whole. Whether a reader hits a
// torn image at all depends on the scheduler, so the retries are logged,
// not required.
func TestPilafCRCCatchesTornReadsLive(t *testing.T) {
	const keys, valueSize, readers, rounds = 8, 256, 4, 200
	ts := transport.NewServer()
	srv, err := NewPilafServer(ts, DefaultOptions(keys, valueSize))
	if err != nil {
		t.Fatal(err)
	}
	// Every byte of a version differs from every byte of every other
	// version, so a splice of two versions is never a version.
	val := func(ver int) []byte { return bytes.Repeat([]byte{byte(ver)}, valueSize) }
	for k := int64(0); k < keys; k++ {
		if err := srv.Load(k, val(0)); err != nil {
			t.Fatal(err)
		}
	}
	addr := serveUnix(t, ts)
	writer := dialPilaf(t, addr, srv.Meta())
	clients := make([]*pilafCore, readers)
	for i := range clients {
		clients[i] = dialPilaf(t, addr, srv.Meta())
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	stopReaders := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stopReaders() // before the server shuts down, if a PUT fails
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				got, err := c.Get(int64(i % keys))
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if len(got) != valueSize || got[0] > rounds || !bytes.Equal(got, val(int(got[0]))) {
					t.Errorf("key %d read %d bytes that are no version written: %x...", i%keys, len(got), got[:min(len(got), 16)])
					return
				}
			}
		}()
	}
	for ver := 1; ver <= rounds; ver++ {
		for k := int64(0); k < keys; k++ {
			if err := writer.Put(k, val(ver)); err != nil {
				t.Fatalf("put %d of key %d: %v", ver, k, err)
			}
		}
	}
	stopReaders()

	var retries int64
	for _, c := range clients {
		retries += c.Retries
	}
	for k := int64(0); k < keys; k++ {
		if got, err := writer.Get(k); err != nil || !bytes.Equal(got, val(rounds)) {
			t.Fatalf("key %d does not read its last version back (err %v)", k, err)
		}
	}
	t.Logf("%d PUTs beside %d readers: %d CRC retries", rounds*keys, readers, retries)
}

// liveKV is the protocol surface BenchmarkLiveGetPut drives: kvCore
// (through LiveClient) and pilafCore both have it.
type liveKV interface {
	Get(key int64) ([]byte, error)
	Put(key int64, value []byte) error
}

// BenchmarkLiveGetPut prices one GET and one PUT of PRISM-KV and of Pilaf
// over a unix socket, one operation in flight: round trips per op (the
// server's requests served, reclamation RPCs included), wire bytes per op
// (both directions) and syscalls per op (client and server reads and
// writes; the server's few for the socket's handshake amortize over b.N).
func BenchmarkLiveGetPut(b *testing.B) {
	const keys, valueSize = 1024, 128
	value := bytes.Repeat([]byte{0x5a}, valueSize)
	stores := []struct {
		name string
		// open provisions and loads the store on ts; its client is made
		// once the socket is up.
		open func(b *testing.B, ts *transport.Server) func(conn *transport.Conn) liveKV
	}{
		{"prismkv", func(b *testing.B, ts *transport.Server) func(*transport.Conn) liveKV {
			srv, err := NewServerOn(ts, DefaultOptions(keys, valueSize))
			if err != nil {
				b.Fatal(err)
			}
			for k := int64(0); k < keys; k++ {
				if err := srv.Load(k, value); err != nil {
					b.Fatal(err)
				}
			}
			return func(conn *transport.Conn) liveKV { return NewLiveClient(conn, srv.Meta(), 1) }
		}},
		{"pilaf", func(b *testing.B, ts *transport.Server) func(*transport.Conn) liveKV {
			srv, err := NewPilafServer(ts, DefaultOptions(keys, valueSize))
			if err != nil {
				b.Fatal(err)
			}
			for k := int64(0); k < keys; k++ {
				if err := srv.Load(k, value); err != nil {
					b.Fatal(err)
				}
			}
			return func(conn *transport.Conn) liveKV { return &pilafCore{conn: conn, meta: srv.Meta()} }
		}},
	}
	for _, store := range stores {
		for _, op := range []string{"get", "put"} {
			b.Run(store.name+"/"+op, func(b *testing.B) {
				ts := transport.NewServer()
				client := store.open(b, ts)
				tc, err := transport.Dial(serveUnix(b, ts))
				if err != nil {
					b.Fatal(err)
				}
				conn, err := tc.Connect()
				if err != nil {
					b.Fatal(err)
				}
				c := client(conn)
				served0 := ts.RequestsServed.Load()
				w0, _, wb0 := tc.FlushStats()
				r0, rb0 := tc.ReadStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					key := int64(i % keys)
					if op == "get" {
						_, err = c.Get(key)
					} else {
						err = c.Put(key, value)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				served := ts.RequestsServed.Load() - served0
				w, _, wb := tc.FlushStats()
				r, rb := tc.ReadStats()
				tc.Close()
				ts.Shutdown(time.Second) // the server's syscall counts land as its socket closes
				syscalls := (w - w0) + (r - r0) + ts.Writes.Load() + ts.Reads.Load()
				n := float64(b.N)
				b.ReportMetric(float64(served)/n, "round_trips/op")
				b.ReportMetric(float64((wb-wb0)+(rb-rb0))/n, "wire_B/op")
				b.ReportMetric(float64(syscalls)/n, "syscalls/op")
			})
		}
	}
}
