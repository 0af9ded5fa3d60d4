package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/kv"
	"prism/internal/transport"
)

// faultMode is how a faultConn mistreats its stream. The first two lose
// no byte and act from the start; the hostile ones act once the conn is
// armed, after the handshake and the connects.
type faultMode int

const (
	// dribble: every read returns one byte, every write reaches the peer
	// in random pieces.
	dribble faultMode = iota
	// shortReads: reads return a random count, writes arrive in random
	// pieces.
	shortReads
	// resetMidFrame: the next write carries half its bytes, then the
	// connection resets.
	resetMidFrame
	// stallAfterLength: the next write carries only its frame's 4-byte
	// length prefix; it and every later write report success and carry
	// nothing, so the peer waits for a body that never comes.
	stallAfterLength
	// neverRead: reads block until the conn is closed.
	neverRead
	// delayedReads: every read waits readDelay first.
	delayedReads
)

func (m faultMode) String() string {
	return [...]string{"dribble", "short-reads-split-writes", "reset-mid-frame",
		"stall-after-length", "never-read", "delayed-reads"}[m]
}

const readDelay = 200 * time.Microsecond

var errInjectedReset = errors.New("injected connection reset")

// faultConn delivers a stream the way a socket or a hostile peer may.
// Each direction has its own generator, because a socket's reads and
// writes run on different goroutines; only one goroutine writes.
type faultConn struct {
	net.Conn
	mode    faultMode
	rr, wr  *rand.Rand
	armed   atomic.Bool
	stalled bool // stallAfterLength: the prefix is out (writer only)

	closeOnce sync.Once
	closed    chan struct{}
}

func newFaultConn(nc net.Conn, mode faultMode, seed int64) *faultConn {
	return &faultConn{Conn: nc, mode: mode, closed: make(chan struct{}),
		rr: rand.New(rand.NewSource(seed)), wr: rand.New(rand.NewSource(^seed))}
}

func (f *faultConn) Read(p []byte) (int, error) {
	switch {
	case f.mode == dribble && len(p) > 1:
		p = p[:1]
	case f.mode == shortReads && len(p) > 1:
		p = p[:1+f.rr.Intn(len(p))]
	case !f.armed.Load():
	case f.mode == neverRead:
		<-f.closed
		return 0, net.ErrClosed
	case f.mode == delayedReads:
		time.Sleep(readDelay)
	}
	return f.Conn.Read(p)
}

func (f *faultConn) Write(p []byte) (int, error) {
	switch {
	case f.mode == dribble || f.mode == shortReads:
		done := 0
		for done < len(p) {
			m, err := f.Conn.Write(p[done : done+1+f.wr.Intn(len(p)-done)])
			done += m
			if err != nil {
				return done, err
			}
		}
		return done, nil
	case !f.armed.Load():
	case f.mode == resetMidFrame:
		n, _ := f.Conn.Write(p[:len(p)/2])
		f.Close()
		return n, errInjectedReset
	case f.mode == stallAfterLength:
		if !f.stalled {
			f.stalled = true
			if _, err := f.Conn.Write(p[:4]); err != nil {
				return 0, err
			}
		}
		return len(p), nil
	}
	return f.Conn.Write(p)
}

func (f *faultConn) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	return f.Conn.Close()
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
		if err := store.Load(k, faultValue(k)); err != nil {
			t.Fatalf("Load(%d): %v", k, err)
		}
	}
	return ts
}

func faultValue(k int64) []byte { return bytes.Repeat([]byte{byte(k)}, 300+int(k)*9) }

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

// checkNoLeak waits for the goroutine count to fall back to before.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
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
	for _, mode := range []faultMode{dribble, shortReads} {
		t.Run(mode.String(), func(t *testing.T) {
			got := run(t, func(nc net.Conn, seed int64) net.Conn { return newFaultConn(nc, mode, seed) })
			if !bytes.Equal(got, want) {
				t.Fatalf("outcomes differ from a plain pipe's:\ngot  %q\nwant %q", got, want)
			}
		})
	}
	checkNoLeak(t, before)
}

// hostileWaiter issues GETs and GetBatch trains of loaded keys on its own
// connection and returns nil once every one has returned the loaded
// value, or the first error. A wrong value is an error of its own.
func hostileWaiter(kvc *kv.LiveClient, id int) error {
	keys := make([]int64, 8)
	for round := 0; round < 10; round++ {
		k := int64(id*10+round) % 48
		v, err := kvc.Get(k)
		if err != nil {
			return err
		}
		if !bytes.Equal(v, faultValue(k)) {
			return fmt.Errorf("%w: GET %d", errWrongValue, k)
		}
		for i := range keys {
			keys[i] = (k + int64(i)) % 48
		}
		var bad error
		if err := kvc.GetBatch(keys, func(i int, v []byte, err error) {
			if bad == nil && (err != nil || !bytes.Equal(v, faultValue(keys[i]))) {
				bad = fmt.Errorf("%w: GetBatch key %d (%v)", errWrongValue, keys[i], err)
			}
		}); err != nil {
			return err
		}
		if bad != nil {
			return bad
		}
	}
	return nil
}

var errWrongValue = errors.New("wrong value")

// TestHostilePeer puts a hostile peer on one end of a client–server
// pipe, once as the server and once as the client, with waiters issuing
// on four connections of the client. Whatever the peer does, every
// waiter gets a result or an error, never neither: a reset fails every
// waiter by itself and slow reads only slow them down, while a stalled
// frame or a peer that stops reading leaves them pending until Close,
// which must fail them all. Every scenario ends in a goroutine-leak
// check.
func TestHostilePeer(t *testing.T) {
	defer transport.SetCloseDrainGrace(transport.SetCloseDrainGrace(100 * time.Millisecond))
	const waiters, deadline = 4, 5 * time.Second
	for _, mode := range []faultMode{resetMidFrame, stallAfterLength, neverRead, delayedReads} {
		for _, hostile := range []string{"server", "client"} {
			t.Run(mode.String()+"/"+hostile, func(t *testing.T) {
				before := runtime.NumGoroutine()
				ts := newFaultKV(t)
				cEnd, sEnd := net.Pipe()
				var fc *faultConn
				cConn, sConn := net.Conn(cEnd), net.Conn(sEnd)
				if hostile == "server" {
					fc = newFaultConn(sEnd, mode, 1)
					sConn = fc
				} else {
					fc = newFaultConn(cEnd, mode, 1)
					cConn = fc
				}
				served := make(chan struct{})
				go func() { defer close(served); ts.ServeConn(sConn) }()
				c, err := transport.NewClientConn(cConn)
				if err != nil {
					t.Fatalf("NewClientConn: %v", err)
				}
				clients := make([]*kv.LiveClient, waiters)
				for i := range clients {
					cn, err := c.Connect()
					if err != nil {
						t.Fatalf("Connect: %v", err)
					}
					meta, err := kv.FetchMeta(cn)
					if err != nil {
						t.Fatalf("FetchMeta: %v", err)
					}
					clients[i] = kv.NewLiveClient(cn, meta, uint16(i+1))
				}

				fc.armed.Store(true)
				outcomes := make(chan error, waiters)
				for i, kvc := range clients {
					go func() { outcomes <- hostileWaiter(kvc, i) }()
				}
				// collect gathers n outcomes, failing the test on a wrong
				// value or on a waiter still pending at the deadline.
				collect := func(n int, by time.Time) (errs int) {
					for ; n > 0; n-- {
						select {
						case err := <-outcomes:
							if errors.Is(err, errWrongValue) {
								t.Error(err)
							}
							if err != nil {
								errs++
							}
						case <-time.After(time.Until(by)):
							t.Fatalf("%d of %d waiters got neither a result nor an error", n, waiters)
						}
					}
					return errs
				}
				switch mode {
				case resetMidFrame:
					if errs := collect(waiters, time.Now().Add(deadline)); errs != waiters {
						t.Errorf("%d of %d waiters failed over a reset connection", errs, waiters)
					}
				case delayedReads:
					if errs := collect(waiters, time.Now().Add(deadline)); errs != 0 {
						t.Errorf("%d of %d waiters failed over a slow reader", errs, waiters)
					}
				default:
					// Nothing but Close can end the wait: a pending waiter
					// must not have been answered already.
					select {
					case err := <-outcomes:
						t.Fatalf("a waiter returned %v before Close over a stalled peer", err)
					case <-time.After(50 * time.Millisecond):
					}
					c.Close()
					if errs := collect(waiters, time.Now().Add(deadline)); errs != waiters {
						t.Errorf("%d of %d waiters failed after Close", errs, waiters)
					}
				}
				c.Close()
				ts.Shutdown(100 * time.Millisecond)
				select {
				case <-served:
				case <-time.After(deadline):
					t.Fatal("ServeConn did not return after Close and Shutdown")
				}
				checkNoLeak(t, before)
			})
		}
	}
}
