package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"prism/internal/kv"
	"prism/internal/transport"
)

// startKV provisions a PRISM-KV store with nSlots slots on a live
// server, preloads keys 0..nSlots/2 (value = key repeated), and serves
// on the given listener, every accepted socket checked
// (transport.CheckedConn): a codec or framing regression fails the test
// instead of corrupting a value silently. The upper half of the
// collisionless key space stays empty for insert tests.
func startKV(t *testing.T, l net.Listener, nSlots int64) (*transport.Server, *kv.Server, chan error) {
	t.Helper()
	return serveKV(t, transport.CheckedListener(t, l), nSlots)
}

// serveKV is startKV without the check, for the allocation tests: what
// they count is the production path alone.
func serveKV(t *testing.T, l net.Listener, nSlots int64) (*transport.Server, *kv.Server, chan error) {
	t.Helper()
	ts := transport.NewServer()
	opts := kv.DefaultOptions(nSlots, 256)
	store, err := kv.NewServerOn(ts, opts)
	if err != nil {
		t.Fatalf("NewServerOn: %v", err)
	}
	for k := int64(0); k < nSlots/2; k++ {
		if err := store.Load(k, loadedValue(k)); err != nil {
			t.Fatalf("Load(%d): %v", k, err)
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ts.Serve(l) }()
	t.Cleanup(func() {
		ts.Shutdown(2 * time.Second)
		if err := <-serveErr; err != transport.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ts, store, serveErr
}

func loadedValue(k int64) []byte {
	return bytes.Repeat([]byte{byte(k)}, 16)
}

func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen tcp: %v", err)
	}
	return l
}

func listenUnix(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("unix", filepath.Join(t.TempDir(), "prism.sock"))
	if err != nil {
		t.Fatalf("listen unix: %v", err)
	}
	return l
}

// smoke runs the full PRISM-KV protocol — GET hit, GET miss, PUT
// insert, PUT overwrite (tag bump), DELETE — over one live connection.
func smoke(t *testing.T, addr string) {
	t.Helper()
	var meta kv.Meta
	tc, conn, err := transport.DialMeta(addr, "kv", &meta)
	if err != nil {
		t.Fatalf("DialMeta: %v", err)
	}
	kvc := kv.NewClient(conn, meta, 1)
	defer tc.Close()

	v, err := kvc.Get(3)
	if err != nil {
		t.Fatalf("Get preloaded: %v", err)
	}
	if !bytes.Equal(v, loadedValue(3)) {
		t.Fatalf("Get(3) = %x, want %x", v, loadedValue(3))
	}
	if _, err := kvc.Get(40); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get missing: err = %v, want ErrNotFound", err)
	}
	if err := kvc.Put(40, []byte("first")); err != nil {
		t.Fatalf("Put insert: %v", err)
	}
	if v, err = kvc.Get(40); err != nil || string(v) != "first" {
		t.Fatalf("Get after insert = %q, %v", v, err)
	}
	if err := kvc.Put(40, []byte("second")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	if v, err = kvc.Get(40); err != nil || string(v) != "second" {
		t.Fatalf("Get after overwrite = %q, %v", v, err)
	}
	if err := kvc.Delete(40); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := kvc.Get(40); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get after delete: err = %v, want ErrNotFound", err)
	}
	if err := kvc.FlushFrees(); err != nil {
		t.Fatalf("FlushFrees: %v", err)
	}
}

func TestLiveTCP(t *testing.T) {
	l := listenTCP(t)
	startKV(t, l, 64)
	smoke(t, l.Addr().String())
}

func TestLiveUnix(t *testing.T) {
	l := listenUnix(t)
	startKV(t, l, 64)
	smoke(t, l.Addr().String())
}

// TestNetwork pins how Dial reads an address: a relative unix path such
// as prismd -unix prism.sock takes is a unix socket, not a tcp address
// missing its port.
func TestNetwork(t *testing.T) {
	for addr, want := range map[string]string{
		"prism.sock":     "unix",
		"/tmp/p.sock":    "unix",
		"127.0.0.1:7171": "tcp",
		"[::1]:7171":     "tcp",
		":7171":          "tcp",
	} {
		if got := transport.Network(addr); got != want {
			t.Errorf("Network(%q) = %q, want %q", addr, got, want)
		}
	}
}

// TestFetchMeta verifies the control plane survives the wire: the meta
// a live client fetches equals the one the simulator would hand over
// in-process.
func TestFetchMeta(t *testing.T) {
	l := listenTCP(t)
	_, store, _ := startKV(t, l, 16)
	tc, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tc.Close()
	conn, err := tc.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	meta, err := kv.FetchMeta(conn)
	if err != nil {
		t.Fatalf("FetchMeta: %v", err)
	}
	if !reflect.DeepEqual(meta, store.Meta()) {
		t.Fatalf("FetchMeta = %+v, want %+v", meta, store.Meta())
	}
}

// TestLiveConcurrentClients hammers one server with many logical
// connections over a few sockets, each client owning a disjoint slice
// of the key space so every read-your-write check is exact.
func TestLiveConcurrentClients(t *testing.T) {
	const (
		sockets         = 4
		clients         = 32
		keysPerClient   = 4
		roundsPerClient = 8
	)
	l := listenUnix(t)
	ts, _, _ := startKV(t, l, sockets*clients*keysPerClient)
	addr := l.Addr().String()

	pool := make([]*transport.Client, sockets)
	for i := range pool {
		tc, err := transport.Dial(addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer tc.Close()
		pool[i] = tc
	}
	metaConn, err := pool[0].Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	meta, err := kv.FetchMeta(metaConn)
	if err != nil {
		t.Fatalf("FetchMeta: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		conn, err := pool[i%sockets].Connect()
		if err != nil {
			t.Fatalf("Connect client %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int, conn *transport.Conn) {
			defer wg.Done()
			kvc := kv.NewClient(conn, meta, uint16(i+1))
			base := int64(i * keysPerClient)
			for round := 0; round < roundsPerClient; round++ {
				for k := base; k < base+keysPerClient; k++ {
					want := fmt.Sprintf("c%d r%d k%d", i, round, k)
					if err := kvc.Put(k, []byte(want)); err != nil {
						errs <- fmt.Errorf("client %d Put(%d): %w", i, k, err)
						return
					}
					got, err := kvc.Get(k)
					if err != nil {
						errs <- fmt.Errorf("client %d Get(%d): %w", i, k, err)
						return
					}
					if string(got) != want {
						errs <- fmt.Errorf("client %d Get(%d) = %q, want %q", i, k, got, want)
						return
					}
				}
			}
			if err := kvc.FlushFrees(); err != nil {
				errs <- fmt.Errorf("client %d FlushFrees: %w", i, err)
			}
		}(i, conn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := ts.ConnsAccepted.Load(); got < clients {
		t.Errorf("ConnsAccepted = %d, want >= %d", got, clients)
	}
	// Eight closed-loop clients per socket: frames staged while a write
	// is in flight must share the next one.
	var writes, frames int64
	for _, tc := range pool {
		w, f, _ := tc.FlushStats()
		writes, frames = writes+w, frames+f
	}
	if frames <= writes {
		t.Errorf("%d frames in %d writes: concurrent clients never coalesced", frames, writes)
	}
}

// TestIdleSocketFootprint: after 1,000 GETs of 1 KiB values, a client
// and server socket pair holds at most 16 KiB of framer buffers — read
// buffers sized to the traffic, not a 64 KiB chunk on each side.
func TestIdleSocketFootprint(t *testing.T) {
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(64, 1024))
	if err != nil {
		t.Fatalf("NewServerOn: %v", err)
	}
	for k := int64(0); k < 32; k++ {
		if err := store.Load(k, bytes.Repeat([]byte{byte(k)}, 1024)); err != nil {
			t.Fatalf("Load(%d): %v", k, err)
		}
	}
	cEnd, sEnd := net.Pipe()
	server := make(chan int, 1)
	go func() {
		n, err := ts.ServeConnFramerBytes(transport.CheckedConn(t, sEnd))
		if err != nil {
			t.Errorf("ServeConn: %v", err)
		}
		server <- n
	}()
	c, err := transport.NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	cn, err := c.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	meta, err := kv.FetchMeta(cn)
	if err != nil {
		t.Fatalf("FetchMeta: %v", err)
	}
	kvc := kv.NewClient(cn, meta, 1)
	for i := 0; i < 1000; i++ {
		if _, err := kvc.Get(int64(i % 32)); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	client := c.FramerBytes()
	c.Close()
	select {
	case srv := <-server:
		if client+srv > 16<<10 {
			t.Errorf("socket pair holds %d bytes of framer buffers (client %d, server %d), want <= %d",
				client+srv, client, srv, 16<<10)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after Close")
	}
}

// TestScanHoldsOneReadBuffer: after 100 SCANs of 32 KiB on one
// connection, the client holds one read buffer, the size of a SCAN's
// response frame, and its entries no copy of a SCAN's payload (the meta
// reply's small one, made before, stays). The issuer read its own
// responses, and their payloads alias the buffer, which the connection
// takes back at its next issue.
func TestScanHoldsOneReadBuffer(t *testing.T) {
	const scans, budget, keys = 100, 32 << 10, 1024
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(keys, 128))
	if err != nil {
		t.Fatalf("NewServerOn: %v", err)
	}
	for k := int64(0); k < keys; k++ {
		if err := store.Load(k, bytes.Repeat([]byte{byte(k)}, 128)); err != nil {
			t.Fatalf("Load(%d): %v", k, err)
		}
	}
	cEnd, sEnd := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); ts.ServeConn(transport.CheckedConn(t, sEnd)) }()
	defer func() { <-served }()
	c, err := transport.NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	defer c.Close()
	cn, err := c.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	meta, err := kv.FetchMeta(cn)
	if err != nil {
		t.Fatalf("FetchMeta: %v", err)
	}
	kvc := kv.NewClient(cn, meta, 1)
	_, before := c.ReadFootprint()
	largest, cursor := 0, int64(0)
	for i := 0; i < scans; i++ {
		window := 0
		next, err := kvc.Scan(cursor, budget, func(k int64, v []byte) error {
			window += len(v)
			if !bytes.Equal(v, bytes.Repeat([]byte{byte(k)}, 128)) {
				return fmt.Errorf("key %d holds %x", k, v[:8])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Scan(%d): %v", cursor, err)
		}
		largest = max(largest, window)
		if cursor = next; cursor >= keys {
			cursor = 0
		}
	}
	held, copies := c.ReadFootprint()
	t.Logf("%d SCANs of up to %d value bytes: a read buffer of %d bytes, %d bytes of payload copies (%d before)", scans, largest, held, copies, before)
	if held < largest || held > budget+1<<10 {
		t.Errorf("the client's read buffer holds %d bytes, want one SCAN response frame (at most %d bytes)", held, budget+1<<10)
	}
	if copies != before {
		t.Errorf("the client's entries hold %d bytes of payload copies after the SCANs, %d before, want no more", copies, before)
	}
}

// TestSharedSocketSteadyState: three connections share one socket, so
// the socket's goroutine reads for all of them and copies each payload
// into its entry; no issuer reads for itself, and no read buffer is lent.
// With GETs alone from a goroutine each, then 32 KiB SCANs before the
// GETs, issued in turn from one goroutine and then concurrently, a warmed
// round allocates (almost) nothing — no read buffer is made to move off a
// lent one — and GETs leave the read buffer at its first size.
func TestSharedSocketSteadyState(t *testing.T) {
	const conns, keys, budget, warm, rounds = 3, 1024, 32 << 10, 50, 200
	l := listenUnix(t)
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(keys, 128))
	if err != nil {
		t.Fatalf("NewServerOn: %v", err)
	}
	for k := int64(0); k < keys; k++ {
		if err := store.Load(k, bytes.Repeat([]byte{byte(k)}, 128)); err != nil {
			t.Fatalf("Load(%d): %v", k, err)
		}
	}
	served := make(chan error, 1)
	go func() { served <- ts.Serve(l) }()
	t.Cleanup(func() {
		ts.Shutdown(2 * time.Second)
		<-served
	})
	tc, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tc.Close()
	var clients []*kv.Client
	var meta kv.Meta
	for i := range conns {
		cn, err := tc.Connect()
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		if i == 0 {
			if meta, err = kv.FetchMeta(cn); err != nil {
				t.Fatalf("FetchMeta: %v", err)
			}
		}
		clients = append(clients, kv.NewClient(cn, meta, uint16(i+1)))
	}
	cursors := make([]int64, conns)
	visits := make([]func(int64, []byte) error, conns)
	for i := range visits {
		visits[i] = func(k int64, v []byte) error {
			if len(v) != 128 || v[0] != byte(k) || v[127] != byte(k) {
				return fmt.Errorf("connection %d: key %d holds %x", i, k, v[:8])
			}
			return nil
		}
	}
	scan := func(i int) error {
		next, err := clients[i].Scan(cursors[i], budget, visits[i])
		if err != nil {
			return fmt.Errorf("connection %d: Scan(%d): %w", i, cursors[i], err)
		}
		if cursors[i] = next; next >= keys {
			cursors[i] = 0
		}
		return nil
	}
	get := func(i, r int) error {
		k := int64(r*conns+i) % keys
		if v, err := clients[i].Get(k); err != nil || len(v) != 128 || v[0] != byte(k) {
			return fmt.Errorf("connection %d: Get(%d) = %x, %v", i, k, v, err)
		}
		return nil
	}
	// A phase's round is a GET on every connection, after a SCAN on every
	// one when scans is set. run issues n of them: in turn from this
	// goroutine, every SCAN of a round before its first GET, or each
	// connection's from a goroutine of its own when concurrent is set.
	type phase struct{ scans, concurrent bool }
	run := func(p phase, n int) error {
		if !p.concurrent {
			for r := range n {
				for i := range conns {
					if p.scans {
						if err := scan(i); err != nil {
							return err
						}
					}
				}
				for i := range conns {
					if err := get(i, r); err != nil {
						return err
					}
				}
			}
			return nil
		}
		var wg sync.WaitGroup
		errs := make([]error, conns)
		for i := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range n {
					if p.scans {
						if errs[i] = scan(i); errs[i] != nil {
							return
						}
					}
					if errs[i] = get(i, r); errs[i] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	// Both sides of the socket count; a read buffer made costs 4 KiB, or
	// a SCAN frame's size, 32 KiB and more.
	const perOp = 512
	for _, p := range []phase{{false, true}, {true, false}, {true, true}} {
		if err := run(p, warm); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(p, rounds); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		ops := conns * rounds
		if p.scans {
			ops *= 2
		}
		allocBytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
		held, copies := tc.ReadFootprint()
		t.Logf("%+v: %.0f bytes allocated per op; a read buffer of %d bytes, %d bytes of payload copies",
			p, allocBytes, held, copies)
		if allocBytes > perOp {
			t.Errorf("%+v: a warmed op allocates %.0f bytes, want at most %d: read buffers are being made", p, allocBytes, perOp)
		}
		if !p.scans && held != transport.ReadStart {
			t.Errorf("%+v: the read buffer holds %d bytes, want its first %d", p, held, transport.ReadStart)
		}
	}
}

// TestLiveShutdownDrain verifies graceful drain: completed work stays
// completed, Serve returns ErrServerClosed, and a client issuing after
// the drain gets an error instead of hanging.
func TestLiveShutdownDrain(t *testing.T) {
	l := listenTCP(t)
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(16, 256))
	if err != nil {
		t.Fatalf("NewServerOn: %v", err)
	}
	if err := store.Load(1, []byte("v")); err != nil {
		t.Fatalf("Load: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ts.Serve(transport.CheckedListener(t, l)) }()

	var meta kv.Meta
	tc, conn, err := transport.DialMeta(l.Addr().String(), "kv", &meta)
	if err != nil {
		t.Fatalf("DialMeta: %v", err)
	}
	kvc := kv.NewClient(conn, meta, 1)
	defer tc.Close()
	if _, err := kvc.Get(1); err != nil {
		t.Fatalf("Get before drain: %v", err)
	}

	ts.Shutdown(2 * time.Second)
	select {
	case err := <-serveErr:
		if err != transport.ErrServerClosed {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := kvc.Get(1); err == nil {
		t.Fatal("Get after drain succeeded, want a transport error")
	}
	// A fresh dial must be refused.
	if _, _, err := transport.DialMeta(l.Addr().String(), "kv", &meta); err == nil {
		t.Fatal("DialMeta after drain succeeded, want refusal")
	}
}
