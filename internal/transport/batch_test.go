package transport_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"prism/internal/kv"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

// Doorbell-batching A/B tests: the client's batching and the server's
// wakeup batch change only how frames share syscalls, never what the
// frames say. The same deterministic workload must produce byte-identical
// outcomes at every threshold — including 1, the write-per-frame,
// serve-per-frame reference that matches the pre-batching datapath — over
// both a net.Pipe and a unix socket, with the server's sockets checked
// (CheckedConn): every frame is canonical codec output along the way. The
// threshold caps the server's wakeup batch (export_test.go); at 1 the
// client's socket is also a perFrameConn. Production code has no way to
// ask for either.

// batchThresholds are the swept caps: unbatched, small, the server's
// wakeup budget, and a budget above any train the workload sends.
var batchThresholds = []int{1, 4, transport.ServerBatch, 1024}

// perFrameConn is the client's write-per-frame reference: it splits each
// Write at frame boundaries, read from the u32 length prefixes, into one
// Write per frame, so the server sees a client that spends a syscall on
// every frame.
type perFrameConn struct{ net.Conn }

func (c perFrameConn) Write(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		end := n + 4 + int(binary.LittleEndian.Uint32(p[n:]))
		m, err := c.Conn.Write(p[n:end])
		if n += m; err != nil {
			return n, err
		}
	}
	return n, nil
}

// clientEnd is the client's side of a batching test's socket: nc itself,
// or at threshold 1 the write-per-frame reference over it.
func clientEnd(nc net.Conn, threshold int) net.Conn {
	if threshold == 1 {
		return perFrameConn{nc}
	}
	return nc
}

// newBatchKV provisions a 64-slot store with keys 0..31 preloaded and
// the given wakeup budget (0 keeps ServerBatch).
func newBatchKV(t *testing.T, maxBatch int) *transport.Server {
	t.Helper()
	ts := transport.NewServer()
	if maxBatch > 0 {
		ts.SetWakeupBatch(maxBatch)
	}
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(64, 256))
	if err != nil {
		t.Fatalf("NewServerOn: %v", err)
	}
	for k := int64(0); k < 32; k++ {
		if err := store.Load(k, loadedValue(k)); err != nil {
			t.Fatalf("Load(%d): %v", k, err)
		}
	}
	return ts
}

// appendOutcome records one operation's observable result: the error
// text (empty for nil) and the value bytes.
func appendOutcome(log []byte, val []byte, err error) []byte {
	if err != nil {
		log = append(log, fmt.Sprintf("err=%v;", err)...)
		return log
	}
	log = append(log, "ok:"...)
	log = append(log, val...)
	log = append(log, ';')
	return log
}

// readTrain posts n single-op READ chains against the table base on cn as
// one fan-out round — one doorbell — and waits for the round.
func readTrain(cn *transport.Conn, meta kv.Meta, n int) ([][]wire.Result, error) {
	f := transport.NewFanout([]transport.Issuer{cn})
	for range n {
		f.Post(0, []wire.Op{prism.Read(meta.Key, meta.HashBase, 8)})
	}
	return f.Wait()
}

// runBatchWorkload drives a fixed op sequence — single GETs, PUT
// inserts, a GetBatch train longer than the send window, a raw
// fan-out round, deletes, and a final re-read — and returns the
// concatenated outcomes.
func runBatchWorkload(t *testing.T, c *transport.Client) []byte {
	t.Helper()
	cn, err := c.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	meta, err := kv.FetchMeta(cn)
	if err != nil {
		t.Fatalf("FetchMeta: %v", err)
	}
	kvc := kv.NewClient(cn, meta, 1)

	var log []byte
	for k := int64(0); k < 40; k++ { // hits 0..31, misses 32..39
		v, err := kvc.Get(k)
		log = appendOutcome(log, v, err)
	}
	for k := int64(32); k < 40; k++ {
		err := kvc.Put(k, []byte(fmt.Sprintf("ins-%d", k)))
		log = appendOutcome(log, nil, err)
	}

	// One doorbell for 100 GETs: more chains than the send window
	// (64), so the train pipelines as completions free slots.
	keys := make([]int64, 100)
	for i := range keys {
		keys[i] = int64(i % 48) // mix of preloaded, inserted, and absent
	}
	if err := kvc.GetBatch(keys, func(i int, v []byte, err error) {
		log = append(log, byte('0'+i%10))
		log = appendOutcome(log, v, err)
	}); err != nil {
		t.Fatalf("GetBatch: %v", err)
	}

	// A raw fan-out round on the connection: 80 single-op READ chains
	// against the table base.
	res, err := readTrain(cn, meta, 80)
	if err != nil {
		t.Fatalf("fan-out round: %v", err)
	}
	for _, rr := range res {
		for i := range rr {
			log = append(log, fmt.Sprintf("s=%v:", rr[i].Status)...)
			log = append(log, rr[i].Data...)
			log = append(log, ';')
		}
	}

	for k := int64(32); k < 36; k++ {
		log = appendOutcome(log, nil, kvc.Delete(k))
	}
	for k := int64(30); k < 40; k++ {
		v, err := kvc.Get(k)
		log = appendOutcome(log, v, err)
	}
	if err := kvc.FlushFrees(); err != nil {
		t.Fatalf("FlushFrees: %v", err)
	}
	return log
}

// TestBatchingDeterminismUnix runs the workload over unix sockets at
// every flush threshold and demands identical outcomes.
func TestBatchingDeterminismUnix(t *testing.T) {
	var want []byte
	for _, th := range batchThresholds {
		t.Run(fmt.Sprintf("flush=%d", th), func(t *testing.T) {
			l := listenUnix(t)
			ts := newBatchKV(t, th)
			serveErr := make(chan error, 1)
			go func() { serveErr <- ts.Serve(transport.CheckedListener(t, l)) }()
			t.Cleanup(func() {
				ts.Shutdown(2 * time.Second)
				<-serveErr
			})
			nc, err := net.Dial("unix", l.Addr().String())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			c, err := transport.NewClientConn(clientEnd(nc, th))
			if err != nil {
				t.Fatalf("NewClientConn: %v", err)
			}
			defer c.Close()
			got := runBatchWorkload(t, c)
			if want == nil {
				want = got
				return
			}
			if string(got) != string(want) {
				t.Fatalf("flush threshold %d changed outcomes:\ngot  %q\nwant %q", th, got, want)
			}
		})
	}
}

// TestBatchingDeterminismPipe runs the same sweep over an in-memory
// net.Pipe served by ServeConn — a synchronous, unbuffered transport
// that exercises the flusher against maximal backpressure — and checks
// the outcomes match the unix-socket runs' shape (identical across
// thresholds).
func TestBatchingDeterminismPipe(t *testing.T) {
	var want []byte
	for _, th := range batchThresholds {
		t.Run(fmt.Sprintf("flush=%d", th), func(t *testing.T) {
			cEnd, sEnd := net.Pipe()
			ts := newBatchKV(t, th)
			serveDone := make(chan struct{})
			go func() { defer close(serveDone); ts.ServeConn(transport.CheckedConn(t, sEnd)) }()
			c, err := transport.NewClientConn(clientEnd(cEnd, th))
			if err != nil {
				t.Fatalf("NewClientConn: %v", err)
			}
			got := runBatchWorkload(t, c)
			c.Close()
			select {
			case <-serveDone:
			case <-time.After(5 * time.Second):
				t.Fatal("ServeConn did not return after client close")
			}
			if want == nil {
				want = got
				return
			}
			if string(got) != string(want) {
				t.Fatalf("flush threshold %d changed outcomes:\ngot  %q\nwant %q", th, got, want)
			}
		})
	}
}

// TestBatchingServerTelemetry checks the server actually coalesces: a
// 100-chain doorbell train must reach it in far fewer read syscalls
// than frames, and its responses must leave in fewer writes.
func TestBatchingServerTelemetry(t *testing.T) {
	l := listenUnix(t)
	ts := newBatchKV(t, 0)
	serveErr := make(chan error, 1)
	go func() { serveErr <- ts.Serve(transport.CheckedListener(t, l)) }()
	c, err := transport.Dial(l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	cn, err := c.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	meta, err := kv.FetchMeta(cn)
	if err != nil {
		t.Fatalf("FetchMeta: %v", err)
	}
	if _, err := readTrain(cn, meta, 100); err != nil {
		t.Fatalf("fan-out round: %v", err)
	}
	writes, frames, _ := c.FlushStats()
	if frames < 100 {
		t.Fatalf("FlushStats frames = %d, want >= 100", frames)
	}
	if writes >= frames {
		t.Fatalf("FlushStats writes = %d for %d frames, want coalescing", writes, frames)
	}
	c.Close()
	ts.Shutdown(2 * time.Second)
	<-serveErr
	if b, bf := ts.Batches.Load(), ts.BatchFrames.Load(); bf <= b {
		t.Fatalf("server batches=%d batchFrames=%d, want frames > batches", b, bf)
	}
}

// TestLiveIssueAllocs pins the warmed live issue path: pooled window
// entries, reused completion channels, and the staging flusher mean a
// steady-state GET allocates (almost) nothing. Lenient ceiling to
// absorb runtime jitter, in the spirit of TestFramedSendAllocs.
func TestLiveIssueAllocs(t *testing.T) {
	l := listenUnix(t)
	serveKV(t, l, 64)
	var meta kv.Meta
	tc, conn, err := transport.DialMeta(l.Addr().String(), "kv", &meta)
	if err != nil {
		t.Fatalf("DialMeta: %v", err)
	}
	kvc := kv.NewClient(conn, meta, 1)
	defer tc.Close()
	for k := int64(0); k < 64; k++ { // warm the window, scratch, and framers
		if _, err := kvc.Get(k % 16); err != nil {
			t.Fatalf("warmup Get: %v", err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := kvc.Get(3); err != nil {
			t.Fatalf("Get: %v", err)
		}
	})
	if avg > 6 {
		t.Errorf("live GET allocates %.1f per op, want <= 6", avg)
	}
}

// TestLiveProgramAllocs pins the warmed live CHASE/SCAN issue path: the
// program header builds into the client's reused scratch and the result
// payload lands in pooled frame storage, so a steady-state program op
// costs no more than a handful of allocations per round trip (both
// sides of the socket count — AllocsPerRun is process-wide). CHASE walks
// a served chain store, SCAN a PRISM-KV table.
func TestLiveProgramAllocs(t *testing.T) {
	chainL := listenUnix(t)
	ts := transport.NewServer()
	store, err := kv.NewChainStoreOn(ts, kv.ChainOptions{Buckets: 4, Depth: 4, MaxValue: 64})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 16; k++ {
		if err := store.Load(k, loadedValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	served := make(chan error, 1)
	go func() { served <- ts.Serve(chainL) }()
	t.Cleanup(func() {
		ts.Shutdown(2 * time.Second)
		<-served
	})
	var chainMeta kv.ChainMeta
	chainTC, chainConn, err := transport.DialMeta(chainL.Addr().String(), "chain", &chainMeta)
	if err != nil {
		t.Fatalf("DialMeta: %v", err)
	}
	defer chainTC.Close()
	chc := kv.NewChainClient(chainConn, chainMeta)

	l := listenUnix(t)
	serveKV(t, l, 64)
	var meta kv.Meta
	tc, conn, err := transport.DialMeta(l.Addr().String(), "kv", &meta)
	if err != nil {
		t.Fatalf("DialMeta: %v", err)
	}
	kvc := kv.NewClient(conn, meta, 1)
	defer tc.Close()
	visit := func(key int64, value []byte) error { return nil }
	for k := int64(0); k < 64; k++ { // warm the window, scratch, and framers
		if _, err := chc.ChaseGet(k % 16); err != nil {
			t.Fatalf("warmup ChaseGet: %v", err)
		}
		if _, err := kvc.Scan(0, 1024, visit); err != nil {
			t.Fatalf("warmup Scan: %v", err)
		}
	}
	avgChase := testing.AllocsPerRun(200, func() {
		if _, err := chc.ChaseGet(3); err != nil {
			t.Fatalf("ChaseGet: %v", err)
		}
	})
	if avgChase > 8 {
		t.Errorf("live CHASE allocates %.1f per op, want <= 8", avgChase)
	}
	avgScan := testing.AllocsPerRun(200, func() {
		if _, err := kvc.Scan(0, 1024, visit); err != nil {
			t.Fatalf("Scan: %v", err)
		}
	})
	if avgScan > 10 {
		t.Errorf("live SCAN allocates %.1f per op, want <= 10", avgScan)
	}
}
