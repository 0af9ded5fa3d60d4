package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"prism/internal/prism"
	"prism/internal/transport"
)

// TestScanAndReclaimOnLiveHost: the reclamation scan knows its store's
// machine only as a transport.Host, so it runs on a live socket server —
// beside a socket that is serving PUTs, which is why its first pass takes
// the space guard — and reclaims exactly the buffer a crashed client left
// behind: popped by an ALLOCATE, installed by no CAS, reported by no one.
func TestScanAndReclaimOnLiveHost(t *testing.T) {
	const loaded, valueSize = 64, 100
	ts := transport.NewServer()
	srv, err := NewServerOn(ts, DefaultOptions(4096, valueSize))
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, valueSize)
	for k := int64(0); k < loaded; k++ {
		if err := srv.Load(k, value); err != nil {
			t.Fatal(err)
		}
	}
	class, err := srv.meta.classFor(entrySize(valueSize))
	if err != nil {
		t.Fatal(err)
	}

	served := make(chan struct{}, 2)
	dial := func() (*transport.Client, *transport.Conn) {
		cEnd, sEnd := net.Pipe()
		go func() { ts.ServeConn(sEnd); served <- struct{}{} }()
		tc, err := transport.NewClientConn(cEnd)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := tc.Connect()
		if err != nil {
			t.Fatal(err)
		}
		return tc, conn
	}

	// The crashed client: its ALLOCATE ran, nothing after it did.
	crashed, conn := dial()
	ops := conn.Ops(1)
	ops[0] = prism.Allocate(class, []byte("orphan"))
	res, err := conn.Issue(ops)
	if err != nil || !res[0].Status.OK() {
		t.Fatalf("allocate: %v, err %v", res, err)
	}
	orphan := res[0].Addr

	// The live client inserts fresh keys — chains that pop buffers and
	// install them, displacing nothing — until the scan has reported.
	writer, wconn := dial()
	c := NewClient(wconn, srv.Meta(), 1)
	stop, underway, writes := make(chan struct{}), make(chan struct{}), make(chan int, 1)
	go func() {
		n := 0
		defer func() { writes <- n }()
		for k := int64(loaded); k < 3000; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Put(k, value); err != nil {
				t.Errorf("put %d: %v", k, err)
				return
			}
			if n++; n == 16 {
				close(underway)
			}
		}
	}()
	select {
	case <-underway:
	case n := <-writes:
		t.Fatalf("the writer stopped after %d puts", n)
	}

	reclaimed := make(chan int, 1)
	srv.ScanAndReclaim(func(n int) { reclaimed <- n })
	select {
	case n := <-reclaimed:
		if n != 1 {
			t.Errorf("the scan reclaimed %d buffers, want the one orphan", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the scan never reported")
	}
	close(stop)
	inserted := <-writes

	g := ts.Space().Guard()
	g.Lock()
	back := owns(ts.FreeList(class), orphan)
	g.Unlock()
	if !back {
		t.Errorf("the orphan %#x is not back on its free list", orphan)
	}
	// Everything the writer installed is still there, and a second scan,
	// with the store idle, finds nothing: live objects are not leaks.
	for k := int64(loaded); k < int64(loaded+inserted); k++ {
		if _, err := c.Get(k); err != nil {
			t.Fatalf("key %d, inserted during the scan: %v", k, err)
		}
	}
	srv.ScanAndReclaim(func(n int) { reclaimed <- n })
	if n := <-reclaimed; n != 0 {
		t.Errorf("a second scan reclaimed %d buffers", n)
	}

	for _, tc := range []*transport.Client{crashed, writer} {
		tc.Close()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("ServeConn did not return after client close")
		}
	}
}

// TestScanAndReclaimScratchIsBits: a scan's scratch is a bit per carved
// buffer. One scan of a loaded 64 Ki-key store with a single orphan
// allocated 4.8 MB when it kept a map entry per hash slot and per free
// buffer — three times the slots it walks, 600 MB at the paper's keyspace.
func TestScanAndReclaimScratchIsBits(t *testing.T) {
	const keys, valueSize = 64 << 10, 512
	ts := transport.NewServer()
	srv, err := NewServerOn(ts, DefaultOptions(keys, valueSize))
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, valueSize)
	for k := int64(0); k < keys; k++ {
		if err := srv.Load(k, value); err != nil {
			t.Fatal(err)
		}
	}
	class, err := srv.meta.classFor(entrySize(valueSize))
	if err != nil {
		t.Fatal(err)
	}
	// Popped, installed nowhere, reported by no one.
	orphan, err := ts.FreeList(class).Pop()
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	reclaimed := -1
	runtime.ReadMemStats(&before)
	srv.ScanAndReclaim(func(n int) { reclaimed = n }) // idle host: done runs before the call returns
	runtime.ReadMemStats(&after)
	if reclaimed != 1 || !owns(ts.FreeList(class), orphan) {
		t.Fatalf("the scan reclaimed %d buffers, want the one orphan %#x", reclaimed, orphan)
	}
	if scratch := after.TotalAlloc - before.TotalAlloc; scratch >= 256<<10 {
		t.Errorf("one scan of %d keys allocated %d bytes, want under 256 KiB", keys, scratch)
	}
}

// TestReclaimRefusesUnknownFreeList: a reclamation batch naming a free
// list the store does not have gets the failure reply [1] and recycles
// nothing — not even its records for a list the store has — and the
// connection keeps serving, on the simulated NIC and on a live socket
// (where the batch used to panic the server's socket goroutine).
func TestReclaimRefusesUnknownFreeList(t *testing.T) {
	const key = 3
	value := []byte("still here")
	for _, tr := range []struct {
		name string
		run  func(provision func(transport.Host), body func(transport.Issuer))
	}{
		{"sim", runOverSim},
		{"live", func(provision func(transport.Host), body func(transport.Issuer)) {
			runOverLive(t, provision, body)
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			var host transport.Host
			var srv *Server
			provision := func(h transport.Host) {
				var err error
				if srv, err = NewServerOn(h, DefaultOptions(16, 32)); err != nil {
					t.Fatal(err)
				}
				if err := srv.Load(key, value); err != nil {
					t.Fatal(err)
				}
				host = h
			}
			// Each free list's pending and posted counts.
			counts := func() []int {
				g := host.Space().Guard()
				g.Lock()
				defer g.Unlock()
				var n []int
				for _, fl := range srv.meta.FreeLists {
					n = append(n, host.FreeList(fl.ID).Pending(), host.FreeList(fl.ID).Len())
				}
				return n
			}
			tr.run(provision, func(conn transport.Issuer) {
				before := counts()
				payload := []byte{rpcFree}
				for _, fl := range []uint32{srv.meta.FreeLists[0].ID, 0xDEADBEEF} {
					payload = binary.LittleEndian.AppendUint32(payload, fl)
					payload = binary.LittleEndian.AppendUint64(payload, uint64(srv.meta.HashBase))
				}
				ops := conn.Ops(1)
				ops[0] = prism.Send(payload)
				res, err := conn.Issue(ops)
				if err != nil || !res[0].Status.OK() || !bytes.Equal(res[0].Data, []byte{1}) {
					t.Errorf("bad batch: reply %v, err %v; want status OK and [1]", res, err)
					return
				}
				if after := counts(); fmt.Sprint(after) != fmt.Sprint(before) {
					t.Errorf("pending and posted per free list %v after the refused batch, %v before", after, before)
				}
				if got, err := NewClient(conn, srv.Meta(), 1).Get(key); err != nil || !bytes.Equal(got, value) {
					t.Errorf("GET after the refused batch = %q, %v; want %q", got, err, value)
				}
			})
		})
	}
}
