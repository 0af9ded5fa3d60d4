package transport_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

// TestObserverSeesGuardOrder: a live server's observer is called by
// prism.Executor.Step under the space guard, so one plain slice, with no
// lock of its own, receives every op the server's sockets step, in the
// order they took the guard. The race detector, which runs this package at
// -cpu 1,2,4, fails the test if a call escapes the guard, and so does
// finding the guard free during a call. Three sockets of two connections
// each run chains whose first op fails, so that their CONDITIONAL second
// op is skipped. Per connection, sequence numbers never decrease and a
// request's ops arrive at indexes 0, 1, 2; the events are the ops the
// server counted as executed plus the skipped ones.
func TestObserverSeesGuardOrder(t *testing.T) {
	const (
		sockets  = 3
		conns    = 2 // per socket
		requests = 30
	)
	type event struct {
		conn, seq uint64
		i         int
		status    wire.Status
	}
	ts := transport.NewServer()
	reg, err := ts.Space().Register(4096)
	if err != nil {
		t.Fatal(err)
	}
	guard := ts.Space().Guard()
	var events []event
	unguarded := 0
	ts.SetObserver(func(req *wire.Request, i int, res *wire.Result, _ *prism.OpMeta) {
		if guard.TryLock() {
			guard.Unlock()
			unguarded++
		}
		events = append(events, event{req.Conn, req.Seq, i, res.Status})
	})

	var served, clients sync.WaitGroup
	errs := make(chan error, sockets*conns)
	pool := make([]*transport.Client, sockets)
	for s := range pool {
		cEnd, sEnd := net.Pipe()
		served.Add(1)
		go func() { defer served.Done(); ts.ServeConn(sEnd) }()
		if pool[s], err = transport.NewClientConn(cEnd); err != nil {
			t.Fatalf("NewClientConn: %v", err)
		}
		for c := 0; c < conns; c++ {
			cn, err := pool[s].Connect()
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			cell := reg.Base + memory.Addr(8*(s*conns+c))
			clients.Add(1)
			go func() {
				defer clients.Done()
				errs <- failingChains(cn, reg, cell, requests)
			}()
		}
	}
	clients.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for _, tc := range pool {
		tc.Close()
	}
	served.Wait() // every socket loop has returned: events is ours alone

	if unguarded > 0 {
		t.Errorf("%d observer calls found the space guard free", unguarded)
	}
	type position struct {
		seq  uint64
		next int // the op index the connection's next event must carry
	}
	at := map[uint64]*position{}
	skipped := int64(0)
	for n, ev := range events {
		p := at[ev.conn]
		switch {
		case p == nil:
			p = &position{seq: ev.seq}
			at[ev.conn] = p
		case ev.seq < p.seq:
			t.Fatalf("event %d: conn %d seq %d after seq %d", n, ev.conn, ev.seq, p.seq)
		case ev.seq > p.seq:
			p.seq, p.next = ev.seq, 0
		}
		if ev.i != p.next {
			t.Fatalf("event %d: conn %d seq %d op[%d], want op[%d]", n, ev.conn, ev.seq, ev.i, p.next)
		}
		p.next++
		if ev.status == wire.StatusNotExecuted {
			skipped++
		}
	}
	if len(at) != sockets*conns {
		t.Errorf("events on %d connections, want %d", len(at), sockets*conns)
	}
	if want := int64(sockets * conns * requests); skipped != want {
		t.Errorf("%d skipped ops, want one a request, %d", skipped, want)
	}
	if executed := ts.OpsExecuted.Load(); int64(len(events)) != executed+skipped {
		t.Errorf("%d events, want %d executed + %d skipped", len(events), executed, skipped)
	}
}

// failingChains issues n three-op chains on cn: a READ under a key nothing
// is registered with (a NAK), a CONDITIONAL WRITE that the failure skips,
// and a WRITE to cell.
func failingChains(cn *transport.Conn, reg *memory.Region, cell memory.Addr, n int) error {
	for range n {
		chain := []wire.Op{
			prism.Read(reg.Key+1, reg.Base, 8),
			prism.Conditional(prism.Write(reg.Key, cell, []byte("skipped!"))),
			prism.Write(reg.Key, cell, []byte("executed")),
		}
		res, err := cn.Issue(chain)
		if err != nil {
			return err
		}
		if res[0].Status.OK() || res[1].Status != wire.StatusNotExecuted || !res[2].Status.OK() {
			return fmt.Errorf("chain ended %v, %v, %v", res[0].Status, res[1].Status, res[2].Status)
		}
	}
	return nil
}
