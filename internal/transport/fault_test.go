package transport_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/kv"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
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
	kvc := kv.NewClient(cn, meta, 2)
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

// TestFaultyConnMatchesPlainPipe runs GETs, PUTs, DELETEs, GetBatch trains
// and raw fan-out rounds and a full SCAN through a net.Pipe whose two ends
// dribble or split what they carry, and demands exactly what a plain
// pipe returns; the server's checked socket (CheckedConn) checks every
// frame on the way. Then no goroutine may outlive Close and Shutdown.
func TestFaultyConnMatchesPlainPipe(t *testing.T) {
	before := runtime.NumGoroutine()
	run := func(t *testing.T, wrap func(nc net.Conn, seed int64) net.Conn) []byte {
		ts := newFaultKV(t)
		cEnd, sEnd := net.Pipe()
		served := make(chan struct{})
		go func() { defer close(served); ts.ServeConn(transport.CheckedConn(t, wrap(sEnd, 1))) }()
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
func hostileWaiter(kvc *kv.Client, id int) error {
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
// socket, once as the server and once as the client, with waiters issuing
// on four connections of the client. Each case runs over a net.Pipe and
// over a TCP loopback pair, whose kernel buffers change when a peer that
// stops reading starts to hold the other side up. Whatever the peer does,
// every waiter gets a result or an error, never neither: a reset fails
// every waiter by itself and slow reads only slow them down, while a
// stalled frame or a peer that stops reading leaves them pending until
// Close, which must fail them all. Every scenario ends in a goroutine-leak
// check.
func TestHostilePeer(t *testing.T) {
	defer transport.SetCloseDrainGrace(transport.SetCloseDrainGrace(100 * time.Millisecond))
	const waiters, deadline = 4, 5 * time.Second
	pairs := []struct {
		name string
		pair func(t *testing.T) (client, server net.Conn)
	}{
		{"pipe", func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }},
		{"tcp", tcpPair},
	}
	for _, mode := range []faultMode{resetMidFrame, stallAfterLength, neverRead, delayedReads} {
		for _, hostile := range []string{"server", "client"} {
			t.Run(mode.String()+"/"+hostile, func(t *testing.T) {
				for _, pair := range pairs {
					t.Run(pair.name, func(t *testing.T) {
						before := runtime.NumGoroutine()
						ts := newFaultKV(t)
						cEnd, sEnd := pair.pair(t)
						var fc *faultConn
						cConn, sConn := net.Conn(cEnd), net.Conn(sEnd)
						if hostile == "server" {
							fc = newFaultConn(sEnd, mode, 1)
							sConn = fc
						} else {
							fc = newFaultConn(cEnd, mode, 1)
							cConn = fc
							sConn = transport.CheckedConn(t, sEnd)
						}
						served := make(chan struct{})
						go func() { defer close(served); ts.ServeConn(sConn) }()
						c, err := transport.NewClientConn(cConn)
						if err != nil {
							t.Fatalf("NewClientConn: %v", err)
						}
						clients := make([]*kv.Client, waiters)
						for i := range clients {
							cn, err := c.Connect()
							if err != nil {
								t.Fatalf("Connect: %v", err)
							}
							meta, err := kv.FetchMeta(cn)
							if err != nil {
								t.Fatalf("FetchMeta: %v", err)
							}
							clients[i] = kv.NewClient(cn, meta, uint16(i+1))
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
			})
		}
	}
	t.Run("peer-closes-after-hello", func(t *testing.T) {
		// The hello rides in the socket's first CONNECT. A peer that
		// reads it and closes without an accept must fail that Connect
		// instead of leaving it waiting.
		for _, pair := range pairs {
			t.Run(pair.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				cEnd, sEnd := pair.pair(t)
				go func() { transport.NewFrameReader(sEnd).Next(); sEnd.Close() }()
				c, err := transport.NewClientConn(cEnd)
				if err != nil {
					t.Fatalf("NewClientConn: %v", err)
				}
				done := make(chan error, 1)
				go func() { _, err := c.Connect(); done <- err }()
				select {
				case err := <-done:
					if err == nil {
						t.Error("Connect succeeded on a socket whose peer closed after the hello")
					}
				case <-time.After(deadline):
					t.Fatal("Connect on a socket whose peer closed after the hello neither returned nor failed")
				}
				c.Close()
				checkNoLeak(t, before)
			})
		}
	})
	t.Run("many-stalled-giant-prefixes", func(t *testing.T) {
		const stalled = 256
		before := runtime.NumGoroutine()
		ts := newFaultKV(t)
		var served sync.WaitGroup
		serve := func(nc net.Conn) {
			served.Add(1)
			go func() { defer served.Done(); ts.ServeConn(nc) }()
		}
		kvc, c := liveKV(t, serve)
		heap0 := liveHeap()
		peers := make([]net.Conn, stalled)
		for i := range peers {
			pEnd, sEnd := net.Pipe()
			serve(sEnd)
			greet(t, pEnd)
			prefix := binary.LittleEndian.AppendUint32(nil, transport.MaxFrame)
			if _, err := pEnd.Write(append(prefix, 0x05)); err != nil {
				t.Fatalf("peer %d: %v", i, err)
			}
			peers[i] = pEnd
		}
		grew, most := liveHeap()-heap0, int64(stalled*transport.ReadStart+transport.ReadBudget)
		t.Logf("%d peers stalled on MaxFrame prefixes: live heap +%d bytes", stalled, grew)
		if grew > most {
			t.Errorf("%d peers stalled on MaxFrame prefixes grew the live heap %d bytes, want under %d", stalled, grew, most)
		}
		done := make(chan error, 1)
		go func() { done <- hostileWaiter(kvc, 0) }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("GETs beside the stalled peers: %v", err)
			}
		case <-time.After(deadline):
			t.Fatal("GETs beside the stalled peers did not complete")
		}
		for _, p := range peers {
			p.Close()
		}
		c.Close()
		ts.Shutdown(100 * time.Millisecond)
		served.Wait()
		checkNoLeak(t, before)
	})
	t.Run("put-beside-a-budget-holder", func(t *testing.T) {
		// One peer stalls on a bare MaxFrame prefix. The other sends the
		// first ReadChunk bytes of a MaxFrame frame, which takes all the
		// read budget the frame needs, and stalls. An 8 KiB WRITE and
		// small GETs on a well-behaved socket still complete: a frame of
		// up to ReadChunk bytes does not wait on the budget.
		const size = 8 << 10
		before := runtime.NumGoroutine()
		ts := newFaultKV(t)
		reg, err := ts.Space().Register(size)
		if err != nil {
			t.Fatal(err)
		}
		var served sync.WaitGroup
		serve := func(nc net.Conn) {
			served.Add(1)
			go func() { defer served.Done(); ts.ServeConn(nc) }()
		}
		kvc, c := liveKV(t, serve)
		var peers []net.Conn
		for _, body := range []int{transport.ReadChunk, 0} {
			pEnd, sEnd := net.Pipe()
			serve(sEnd)
			greet(t, pEnd)
			frame := append(binary.LittleEndian.AppendUint32(nil, transport.MaxFrame), 0x05)
			if _, err := pEnd.Write(append(frame, make([]byte, body)...)); err != nil {
				t.Fatalf("peer sending %d body bytes: %v", body, err)
			}
			peers = append(peers, pEnd)
		}
		if held, want := ts.ReadBudgetHeld(), transport.MaxFrame+4-transport.ReadChunk; held != want {
			t.Fatalf("the stalled frame holds %d bytes of the read budget, want %d", held, want)
		}
		cn, err := c.Connect()
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		data := bytes.Repeat([]byte{0x5a}, size)
		done := make(chan error, 1)
		go func() {
			res, err := cn.Issue([]wire.Op{prism.Write(reg.Key, reg.Base, data), prism.Read(reg.Key, reg.Base, size)})
			if err == nil && (!res[0].Status.OK() || !bytes.Equal(res[1].Data, data)) {
				err = fmt.Errorf("%w: 8 KiB WRITE then READ: %v", errWrongValue, res[0].Status)
			}
			if err == nil {
				err = hostileWaiter(kvc, 0)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("beside the stalled frames: %v", err)
			}
		case <-time.After(deadline):
			t.Fatal("an 8 KiB WRITE beside a frame holding the read budget did not complete")
		}
		for _, p := range peers {
			p.Close()
		}
		c.Close()
		ts.Shutdown(100 * time.Millisecond)
		served.Wait()
		checkNoLeak(t, before)
	})
	t.Run("peer-closes-while-waiting-on-renewed-budget", func(t *testing.T) {
		// Holders take read budget back to back: a new one every
		// timeout/4 sends the first ReadChunk bytes of a 1 MiB frame and
		// stalls, so its socket holds the frame's budget until its read
		// deadline closes it, and there is never a moment with none held.
		// The victim needs the whole budget for a MaxFrame frame, so it
		// waits; then its peer closes. The server must drop the victim
		// within the frame read timeout, while the holders go on.
		const timeout, slack, size = 200 * time.Millisecond, time.Second, 1 << 20
		defer transport.SetFrameReadTimeout(transport.SetFrameReadTimeout(timeout))
		before := runtime.NumGoroutine()
		ts := newFaultKV(t)
		var served sync.WaitGroup
		serve := func(nc net.Conn) chan struct{} {
			done := make(chan struct{})
			served.Add(1)
			go func() { defer served.Done(); defer close(done); ts.ServeConn(nc) }()
			return done
		}
		stop, holding := make(chan struct{}), make(chan []net.Conn, 1)
		go func() {
			var holders []net.Conn
			defer func() { holding <- holders }()
			frame := append(binary.LittleEndian.AppendUint32(nil, size), 0x05)
			frame = append(frame, make([]byte, transport.ReadChunk)...)
			for tick := time.NewTicker(timeout / 4); ; {
				pEnd, sEnd := net.Pipe()
				serve(sEnd)
				holders = append(holders, pEnd)
				if !tryGreet(pEnd) {
					t.Error("a holder was not greeted")
					return
				}
				if _, err := pEnd.Write(frame); err != nil {
					t.Errorf("holder %d: %v", len(holders), err)
					return
				}
				select {
				case <-stop:
					tick.Stop()
					return
				case <-tick.C:
				}
			}
		}()
		for by := time.Now().Add(slack); ts.ReadBudgetHeld() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(by) {
				t.Fatal("no holder took read budget")
			}
		}
		victim, sEnd := net.Pipe()
		dropped := serve(sEnd)
		greet(t, victim)
		giant := append(binary.LittleEndian.AppendUint32(nil, transport.MaxFrame), 0x05)
		giant = append(giant, make([]byte, transport.ReadChunk-len(giant))...)
		if _, err := victim.Write(giant); err != nil {
			t.Fatalf("victim: %v", err)
		}
		victim.Close()
		closed := time.Now()
		select {
		case <-dropped:
			if waited := time.Since(closed); waited > timeout+slack {
				t.Errorf("the victim's socket was dropped %v after its peer closed, want under %v", waited, timeout+slack)
			}
		case <-time.After(timeout + slack):
			t.Error("a socket waiting on read budget that holders renew was not dropped after its peer closed")
		}
		close(stop)
		for _, h := range <-holding {
			h.Close()
		}
		ts.Shutdown(100 * time.Millisecond)
		served.Wait()
		checkNoLeak(t, before)
	})
	t.Run("request-on-unopened-connection", func(t *testing.T) {
		req := wire.AppendRequest(nil, &wire.Request{Conn: 99, Seq: 1, Ops: []wire.Op{prism.Read(1, 0, 8)}})
		frame := append(binary.LittleEndian.AppendUint32(nil, uint32(1+len(req))), 0x05)
		for _, pair := range pairs {
			t.Run(pair.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				ts := newFaultKV(t)
				var served sync.WaitGroup
				serve := func(nc net.Conn) {
					served.Add(1)
					go func() { defer served.Done(); ts.ServeConn(nc) }()
				}
				kvc, c := liveKV(t, serve)
				// Greeted, a request on a connection the socket never
				// opened, which the server closes the socket on unanswered;
				// not greeted, a CONNECT without the hello, which it
				// refuses the socket for.
				for _, greeted := range []bool{true, false} {
					pEnd, sEnd := pair.pair(t)
					serve(sEnd)
					send := connectFrame
					if greeted {
						greet(t, pEnd)
						send = append(frame, req...)
					}
					if _, err := pEnd.Write(send); err != nil {
						t.Fatalf("write: %v", err)
					}
					pEnd.SetReadDeadline(time.Now().Add(deadline))
					if greeted {
						if n, err := pEnd.Read(make([]byte, 64)); err != io.EOF {
							t.Errorf("the server answered %x: %d bytes, %v", send, n, err)
						}
					} else if err := refused(pEnd); !errors.Is(err, transport.ErrBadHello) {
						t.Errorf("a CONNECT without the hello: %v, want ErrBadHello", err)
					}
					pEnd.Close()
				}
				if err := hostileWaiter(kvc, 0); err != nil {
					t.Errorf("GETs on the other socket: %v", err)
				}
				c.Close()
				ts.Shutdown(100 * time.Millisecond)
				served.Wait()
				checkNoLeak(t, before)
			})
		}
	})
	t.Run("bad-hello", func(t *testing.T) {
		// A hello of another version, a request before any CONNECT, and a
		// CONNECT carrying a payload after the socket's first each refuse
		// the socket, with the hello as the reason.
		req := wire.AppendRequest(nil, &wire.Request{Conn: 0, Seq: 1, Ops: []wire.Op{prism.Read(1, 0, 8)}})
		request := append(append(binary.LittleEndian.AppendUint32(nil, uint32(1+len(req))), 0x05), req...)
		for _, pair := range pairs {
			t.Run(pair.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				ts := newFaultKV(t)
				var served sync.WaitGroup
				for _, c := range []struct {
					name        string
					greet, send []byte
				}{
					{"version-2", nil, connectHello("PRSM\x02")},
					{"request-first", nil, request},
					{"second-hello", connectHello("PRSM\x01"), connectHello("PRSM\x01")},
				} {
					pEnd, sEnd := pair.pair(t)
					served.Add(1)
					go func() { defer served.Done(); ts.ServeConn(sEnd) }()
					if c.greet != nil {
						greet(t, pEnd)
					}
					if _, err := pEnd.Write(c.send); err != nil {
						t.Fatalf("%s: write: %v", c.name, err)
					}
					pEnd.SetReadDeadline(time.Now().Add(deadline))
					if err := refused(pEnd); !errors.Is(err, transport.ErrBadHello) {
						t.Errorf("%s: %v, want ErrBadHello", c.name, err)
					}
					pEnd.Close()
				}
				ts.Shutdown(100 * time.Millisecond)
				served.Wait()
				checkNoLeak(t, before)
			})
		}
	})
	t.Run("sockets-come-and-go", func(t *testing.T) {
		// Peers open connections and leave, one socket after another. A
		// closing socket returns its connections' temp buffers, so the
		// server's registered memory stays where one such socket left it.
		const sockets, conns = 4, 2000
		before := runtime.NumGoroutine()
		ts := transport.NewServer()
		var first uint64
		for i := 0; i < sockets; i++ {
			cEnd, sEnd := net.Pipe()
			served := make(chan struct{})
			go func() { defer close(served); ts.ServeConn(sEnd) }()
			c, err := transport.NewClientConn(cEnd)
			if err != nil {
				t.Fatalf("socket %d: %v", i, err)
			}
			for j := 0; j < conns; j++ {
				if _, err := c.Connect(); err != nil {
					t.Fatalf("socket %d, Connect %d: %v", i, j, err)
				}
			}
			c.Close()
			<-served
			reg := registeredBytes(ts)
			if i == 0 {
				first = reg
				continue
			}
			if reg != first {
				t.Errorf("after %d sockets of %d connections: %d bytes registered, want %d (one socket's)", i+1, conns, reg, first)
			}
		}
		ts.Shutdown(100 * time.Millisecond)
		checkNoLeak(t, before)
	})
	t.Run("connect-flood", func(t *testing.T) {
		// A peer pipelines MaxConns+1 CONNECT frames: it gets MaxConns
		// accepts, then loses its socket, and the connections it held are
		// open to the next peer.
		before := runtime.NumGoroutine()
		ts := transport.NewServer()
		var served sync.WaitGroup
		serve := func(nc net.Conn) {
			served.Add(1)
			go func() { defer served.Done(); ts.ServeConn(nc) }()
		}
		pEnd, sEnd := net.Pipe()
		serve(sEnd)
		go pEnd.Write(append(connectHello("PRSM\x01"), bytes.Repeat(connectFrame, transport.MaxConns)...)) // fails once the server closes
		pEnd.SetReadDeadline(time.Now().Add(4 * deadline))
		accepts := 0
		fr := transport.NewFrameReader(pEnd)
		for ; ; accepts++ {
			kind, body, err := fr.Next()
			if err != nil {
				t.Fatalf("after %d accepts: %v", accepts, err)
			}
			if kind == 0x04 {
				continue
			}
			if kind != 0x02 || len(body) != 1 || body[0] != transport.RefuseConns {
				t.Fatalf("frame 0x%02x %x after %d accepts, want an accept or a refusal for MaxConns", kind, body, accepts)
			}
			break
		}
		if accepts != transport.MaxConns {
			t.Errorf("a flood of %d CONNECTs got %d accepts, want %d and a refused socket", transport.MaxConns+1, accepts, transport.MaxConns)
		}
		pEnd.Close()
		cEnd, sEnd := net.Pipe()
		serve(sEnd)
		c, err := transport.NewClientConn(cEnd)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; {
			// The flood's connections return once its socket has left.
			if _, err := c.Connect(); err == nil {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("no connection fits after the flood's socket closed: %v", err)
			}
			c.Close()
			cEnd, sEnd = net.Pipe()
			serve(sEnd)
			if c, err = transport.NewClientConn(cEnd); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		ts.Shutdown(100 * time.Millisecond)
		served.Wait()
		checkNoLeak(t, before)
	})
}

// registeredBytes is the memory registered on ts's space.
func registeredBytes(ts *transport.Server) uint64 {
	g := ts.Space().Guard()
	g.Lock()
	defer g.Unlock()
	var n uint64
	for _, r := range ts.Space().Regions() {
		n += r.Len
	}
	return n
}

// TestStalledFrameReleasesReadBudget is TestHostilePeer's budget holder
// left alone: a peer sends the first ReadChunk bytes of a MaxFrame frame,
// which takes all the read budget the frame needs, and stalls. A 1 MiB
// frame on another socket needs budget too. It must be answered once the
// stalled frame's read deadline has closed the stalled socket and given
// its budget back, not only when the stalled peer disconnects. Runs over a
// net.Pipe and a TCP loopback pair.
func TestStalledFrameReleasesReadBudget(t *testing.T) {
	const timeout, slack, size = 200 * time.Millisecond, 2 * time.Second, 1 << 20
	defer transport.SetFrameReadTimeout(transport.SetFrameReadTimeout(timeout))
	pairs := []struct {
		name string
		pair func(t *testing.T) (client, server net.Conn)
	}{
		{"pipe", func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }},
		{"tcp", tcpPair},
	}
	for _, pair := range pairs {
		t.Run(pair.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ts := newFaultKV(t)
			reg, err := ts.Space().Register(size)
			if err != nil {
				t.Fatal(err)
			}
			var served sync.WaitGroup
			serve := func(nc net.Conn) {
				served.Add(1)
				go func() { defer served.Done(); ts.ServeConn(nc) }()
			}
			stalled, sEnd := pair.pair(t)
			serve(sEnd)
			greet(t, stalled)
			frame := append(binary.LittleEndian.AppendUint32(nil, transport.MaxFrame), 0x05)
			if _, err := stalled.Write(append(frame, make([]byte, transport.ReadChunk)...)); err != nil {
				t.Fatalf("stalled peer: %v", err)
			}
			for by := time.Now().Add(slack); ts.ReadBudgetHeld() != transport.MaxFrame+4-transport.ReadChunk; time.Sleep(time.Millisecond) {
				if time.Now().After(by) {
					t.Fatalf("the stalled frame holds %d bytes of the read budget", ts.ReadBudgetHeld())
				}
			}
			held := time.Now()

			cEnd, sEnd := pair.pair(t)
			serve(transport.CheckedConn(t, sEnd))
			c, err := transport.NewClientConn(cEnd)
			if err != nil {
				t.Fatalf("NewClientConn: %v", err)
			}
			cn, err := c.Connect()
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			data := bytes.Repeat([]byte{0xa5}, size)
			done := make(chan error, 1)
			go func() {
				res, err := cn.Issue([]wire.Op{prism.Write(reg.Key, reg.Base, data)})
				if err == nil && !res[0].Status.OK() {
					err = fmt.Errorf("1 MiB WRITE: %v", res[0].Status)
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Error(err)
				}
				if waited := time.Since(held); waited > timeout+slack {
					t.Errorf("the 1 MiB frame was answered %v after the stalled frame took the budget, want under %v", waited, timeout+slack)
				}
			case <-time.After(timeout + slack):
				t.Error("a 1 MiB frame waited on a stalled frame's read budget past its read deadline")
				stalled.Close() // let it through
				<-done
			}
			stalled.SetReadDeadline(time.Now().Add(slack))
			if _, err := stalled.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("the stalled peer's socket was not closed: %v", err)
			}
			stalled.Close()
			c.Close()
			ts.Shutdown(100 * time.Millisecond)
			served.Wait()
			checkNoLeak(t, before)
		})
	}
}

// TestReadBudgetServesEveryLargeFrame: more concurrent request frames
// above readChunk than the server's read budget holds at once are all
// served. A socket whose frame does not fit waits for budget instead of
// allocating, and a frame that is admitted always completes and gives
// its bytes back. The frames are 1.5 MiB and there are more senders than
// the budget holds at 1 MiB each: a budget charged only as buffers double
// would strand every admitted socket at 1 MiB, each waiting for the half
// MiB another holds.
func TestReadBudgetServesEveryLargeFrame(t *testing.T) {
	const (
		payload = 512 << 10 // per WRITE op
		ops     = 3         // a 1.5 MiB request frame
		senders = transport.ReadBudget/(1<<20) + 4
	)
	before := runtime.NumGoroutine()
	ts := transport.NewServer()
	reg, err := ts.Space().Register(payload)
	if err != nil {
		t.Fatal(err)
	}
	ts.SetConnTempKey(reg.Key)
	var served sync.WaitGroup
	errs := make(chan error, senders)
	clients := make([]*transport.Client, senders)
	for i := range clients {
		cEnd, sEnd := net.Pipe()
		served.Add(1)
		go func() { defer served.Done(); ts.ServeConn(transport.CheckedConn(t, sEnd)) }()
		if clients[i], err = transport.NewClientConn(cEnd); err != nil {
			t.Fatalf("NewClientConn: %v", err)
		}
	}
	for i, c := range clients {
		go func() {
			cn, err := c.Connect()
			if err != nil {
				errs <- err
				return
			}
			data := bytes.Repeat([]byte{byte(i)}, payload)
			chain := make([]wire.Op, ops)
			for j := range chain {
				chain[j] = prism.Write(reg.Key, reg.Base, data)
			}
			res, err := cn.Issue(chain)
			if err == nil && !res[ops-1].Status.OK() {
				err = fmt.Errorf("sender %d: WRITE %v", i, res[ops-1].Status)
			}
			errs <- err
		}()
	}
	for range clients {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d frames of %d bytes against a %d-byte budget: not all served", senders, ops*payload, transport.ReadBudget)
		}
	}
	for _, c := range clients {
		c.Close()
	}
	ts.Shutdown(time.Second)
	served.Wait()
	checkNoLeak(t, before)
}

// liveKV opens a well-behaved client socket, served checked by serve,
// with one PRISM-KV connection on it.
func liveKV(t *testing.T, serve func(net.Conn)) (*kv.Client, *transport.Client) {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	serve(transport.CheckedConn(t, sEnd))
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
	return kv.NewClient(cn, meta, 1), c
}

// tcpPair returns the two ends of a TCP loopback connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l := listenTCP(t)
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, _ := l.Accept()
		accepted <- nc
	}()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if server = <-accepted; server == nil {
		t.Fatal("accept failed")
	}
	return client, server
}

// greet opens a connection by hand on a raw client end; its accept says
// the server took the socket.
func greet(t *testing.T, nc net.Conn) {
	t.Helper()
	if !tryGreet(nc) {
		t.Fatal("the server did not accept the CONNECT carrying the hello")
	}
}

// refused reads the next frame on a raw client end, which must be a
// refusal, and returns the error its reason stands for.
func refused(nc net.Conn) error {
	kind, body, err := transport.NewFrameReader(nc).Next()
	switch {
	case err != nil:
		return err
	case kind != 0x02 || len(body) != 1:
		return fmt.Errorf("frame 0x%02x %x, want a refusal", kind, body)
	}
	return transport.Refusal(body[0])
}

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSocketCap: a server serves at most MaxSockets sockets at once; the
// next one, over a net.Pipe or TCP, is refused, and its client's Connect
// says why. One fits again once a socket has closed, and a draining
// server refuses a socket as draining.
func TestSocketCap(t *testing.T) {
	ts := transport.NewServer()
	var served sync.WaitGroup
	serve := func() net.Conn {
		cEnd, sEnd := net.Pipe()
		served.Add(1)
		go func() { defer served.Done(); ts.ServeConn(sEnd) }()
		return cEnd
	}
	ends := make([]net.Conn, transport.MaxSockets)
	for i := range ends {
		ends[i] = serve()
		greet(t, ends[i]) // answered, so registered
	}
	// refuse serves one more socket over pair, which must be refused with
	// want, both by ServeConn and to its client's Connect.
	refuse := func(t *testing.T, pair func(t *testing.T) (net.Conn, net.Conn), want error) {
		cEnd, sEnd := pair(t)
		done := make(chan error, 1)
		go func() { done <- ts.ServeConn(sEnd) }()
		c, err := transport.NewClientConn(cEnd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Connect(); !errors.Is(err, want) {
			t.Errorf("Connect on a refused socket: %v, want %v", err, want)
		}
		c.Close()
		select {
		case err := <-done:
			if !errors.Is(err, want) {
				t.Errorf("ServeConn: %v, want %v", err, want)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("a refused socket was served")
			<-done
		}
	}
	t.Run("pipe", func(t *testing.T) {
		refuse(t, func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }, transport.ErrTooManySockets)
	})
	t.Run("tcp", func(t *testing.T) { refuse(t, tcpPair, transport.ErrTooManySockets) })
	ends[0].Close()
	ends[0] = serve()
	for deadline := time.Now().Add(5 * time.Second); ; {
		// Refused until the closed socket has left; then greeted.
		if ok := tryGreet(ends[0]); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no socket fits after one of MaxSockets closed")
		}
		ends[0].Close()
		ends[0] = serve()
	}
	for _, e := range ends {
		e.Close()
	}
	served.Wait()
	ts.Shutdown(0)
	for _, pair := range []struct {
		name string
		pair func(t *testing.T) (client, server net.Conn)
	}{
		{"draining/pipe", func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }},
		{"draining/tcp", tcpPair},
	} {
		t.Run(pair.name, func(t *testing.T) { refuse(t, pair.pair, transport.ErrServerClosed) })
	}
}

// tryGreet sends the CONNECT carrying the protocol hello on nc and
// reports whether the server answered with an accept, which tells a
// socket the server took from one it refused. The CONNECT goes out on
// its own goroutine: a server refusing the socket writes its reason
// before it reads, which on a net.Pipe waits for this reader.
func tryGreet(nc net.Conn) bool {
	go nc.Write(connectHello("PRSM\x01"))
	kind, _, err := transport.NewFrameReader(nc).Next()
	return err == nil && kind == 0x04
}

// connectFrame is a CONNECT frame as a client sends all but a socket's
// first.
var connectFrame = []byte{1, 0, 0, 0, 0x03}

// connectHello returns a socket's first CONNECT frame, which carries the
// protocol hello: "PRSM\x01" is the one a client sends.
func connectHello(hello string) []byte {
	return append(append(binary.LittleEndian.AppendUint32(nil, uint32(1+len(hello))), 0x03), hello...)
}
