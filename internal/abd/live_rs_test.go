package abd

import (
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/check"
	"prism/internal/sim"
	"prism/internal/transport"
)

// stallListener hands its server sockets that stop answering once stall
// is set: a read that returns after that drops its bytes and blocks until
// the socket closes, so the replica behind it accepted every connection
// and then falls silent, its NIC alive.
type stallListener struct {
	net.Listener
	stall *atomic.Bool
}

func (l stallListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stallConn{Conn: nc, stall: l.stall, closed: make(chan struct{})}, nil
}

type stallConn struct {
	net.Conn
	stall  *atomic.Bool
	once   sync.Once
	closed chan struct{}
}

func (c *stallConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.stall.Load() {
		<-c.closed
		return 0, net.ErrClosed
	}
	return n, err
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestRSLiveLinearizable runs PRISM-RS's one protocol over unix sockets:
// three replicas served by transport.Servers, live clients each with its
// own sockets doing mixed GETs and PUTs on two hot blocks, and the
// wall-clock history checked for linearizability. One replica may stop
// answering after every client connected, or NAK every verb; either way
// every operation completes at the quorum.
func TestRSLiveLinearizable(t *testing.T) {
	const nClients, blockSize = 4, 16
	for _, fault := range []string{"none", "silent replica", "naking replica"} {
		t.Run(fault, func(t *testing.T) {
			var stall atomic.Bool
			addrs := make([]string, 3)
			metas := make([]Meta, 3)
			for i := range addrs {
				ts := transport.NewServer()
				rep, err := NewReplica(ts, ReplicaOptions{NBlocks: 2, BlockSize: blockSize, ExtraBuffers: 4096})
				if err != nil {
					t.Fatal(err)
				}
				addrs[i], metas[i] = filepath.Join(t.TempDir(), "replica.sock"), rep.Meta()
				l, err := net.Listen("unix", addrs[i])
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 && fault == "silent replica" {
					l = stallListener{l, &stall}
				}
				if i == 0 && fault == "naking replica" {
					metas[i].Key++
				}
				go ts.Serve(l)
				t.Cleanup(func() { ts.Shutdown(100 * time.Millisecond) })
			}

			clients := make([]liveRegister, nClients)
			for n := range clients {
				clients[n] = NewClient(uint16(n+1), transport.Issuers(dialAll(t, addrs)), metas)
			}
			stall.Store(true)
			checkLiveHistory(t, clients, 40, blockSize)
		})
	}
}

// liveRegister is the surface PRISM-RS's and ABDLOCK's live clients share.
type liveRegister interface {
	GetT(block int64) (Tag, []byte, error)
	PutT(block int64, value []byte) (Tag, error)
}

// dialAll opens one connection to every address, each on a socket of its
// own.
func dialAll(t *testing.T, addrs []string) []*transport.Conn {
	t.Helper()
	conns := make([]*transport.Conn, len(addrs))
	for i, addr := range addrs {
		tc, err := transport.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tc.Close() })
		if conns[i], err = tc.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	return conns
}

// checkLiveHistory runs the clients concurrently, each doing ops random
// GETs and PUTs on two hot blocks, records the wall-clock history and
// checks it for linearizability.
func checkLiveHistory(t *testing.T, clients []liveRegister, ops, blockSize int) {
	t.Helper()
	var mu sync.Mutex
	hist := check.NewMultiRegisterHistory()
	start := time.Now()
	now := func() sim.Time { return sim.Time(time.Since(start)) }
	var wg sync.WaitGroup
	for n, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(n) * 97))
			for k := 0; k < ops; k++ {
				block, op := int64(rng.Intn(2)), check.RegisterOp{Client: n + 1, Invoke: now()}
				var tag Tag
				var err error
				if op.IsWrite = rng.Intn(2) == 0; op.IsWrite {
					val := make([]byte, blockSize)
					rng.Read(val)
					tag, err = c.PutT(block, val)
				} else {
					tag, _, err = c.GetT(block)
				}
				if err != nil {
					t.Errorf("client %d op %d: %v", n+1, k, err)
					return
				}
				op.Tag, op.Respond = uint64(tag), now()
				mu.Lock()
				hist.Add(block, op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := hist.Ops(); got != len(clients)*ops {
		t.Fatalf("%d of %d operations completed", got, len(clients)*ops)
	}
	if err := hist.Check(uint64(MakeTag(1, 0))); err != nil {
		t.Fatalf("linearizability violation: %v", err)
	}
}

// TestLockLiveLinearizable runs ABDLOCK's one protocol over unix sockets
// against three lock replicas served by transport.Servers.
func TestLockLiveLinearizable(t *testing.T) {
	const nClients, blockSize = 4, 16
	addrs := make([]string, 3)
	metas := make([]LockMeta, 3)
	for i := range addrs {
		ts := transport.NewServer()
		rep, err := NewLockReplica(ts, 2, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i], metas[i] = filepath.Join(t.TempDir(), "replica.sock"), rep.Meta()
		l, err := net.Listen("unix", addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		go ts.Serve(l)
		t.Cleanup(func() { ts.Shutdown(time.Second) })
	}
	clients := make([]liveRegister, nClients)
	for n := range clients {
		clients[n] = NewLockClient(uint16(n+1), transport.Issuers(dialAll(t, addrs)), metas, rand.New(rand.NewSource(int64(n))).Float64)
	}
	checkLiveHistory(t, clients, 40, blockSize)
}
