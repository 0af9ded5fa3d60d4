package transport_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// issuerRegion is what a contract case issues against: a registered
// region of issuerCells 8-byte cells, and two issuers on one client.
type issuerRegion struct {
	key  memory.RKey
	base memory.Addr
	is   [2]transport.Issuer
}

const issuerCells = 64

func (r *issuerRegion) cell(i int) memory.Addr { return r.base + memory.Addr(8*i) }

func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// TestIssuerContract runs one set of cases over both transports' Issuers:
// a simulated *rdma.Conn inside a sim.Proc and a live *transport.Conn on a
// net.Pipe. No client type stands between the cases and the issuer. A
// case may run inside a simulation process, so it fails with Error and
// returns rather than calling Fatal off the test's goroutine.
func TestIssuerContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *issuerRegion)
	}{
		{"ops-scratch", func(t *testing.T, r *issuerRegion) {
			ops := r.is[0].Ops(3)
			if len(ops) != 3 {
				t.Errorf("Ops(3) has %d ops", len(ops))
			}
			for i := range ops {
				if ops[i].Code != 0 || ops[i].Data != nil || ops[i].Target != 0 {
					t.Errorf("Ops(3)[%d] is not zeroed: %+v", i, ops[i])
				}
			}
			ops[0] = prism.Write(r.key, r.cell(0), u64(7))
			ops[1] = prism.Read(r.key, r.cell(0), 8)
			ops[2] = prism.Read(r.key, r.cell(1), 8)
			res, err := r.is[0].Issue(ops)
			if err != nil || len(res) != 3 || !bytes.Equal(res[1].Data, u64(7)) {
				t.Errorf("a chain in Ops scratch: %+v, %v", res, err)
			}
		}},
		{"issue", func(t *testing.T, r *issuerRegion) {
			res, err := r.is[0].Issue([]wire.Op{prism.Write(r.key, r.cell(2), u64(42))})
			if err != nil || len(res) != 1 || res[0].Status != wire.StatusOK {
				t.Errorf("WRITE: %+v, %v", res, err)
				return
			}
			res, err = r.is[0].Issue([]wire.Op{prism.Read(r.key, r.cell(2), 8)})
			if err != nil || !bytes.Equal(res[0].Data, u64(42)) {
				t.Errorf("READ after WRITE: %+v, %v", res, err)
			}
		}},
		{"issue-async", func(t *testing.T, r *issuerRegion) {
			for i := 0; i < 4; i++ {
				if err := r.is[0].IssueAsync([]wire.Op{prism.Write(r.key, r.cell(3+i), u64(uint64(100+i)))}); err != nil {
					t.Errorf("IssueAsync: %v", err)
					return
				}
			}
			// Requests on one connection execute in order: a READ issued
			// after them sees every fire-and-forget WRITE.
			res, err := r.is[0].Issue([]wire.Op{prism.Read(r.key, r.cell(3), 32)})
			want := append(append(append(u64(100), u64(101)...), u64(102)...), u64(103)...)
			if err != nil || !bytes.Equal(res[0].Data, want) {
				t.Errorf("READ after four IssueAsync WRITEs: %+v, %v", res, err)
			}
		}},
		{"issue-batch", func(t *testing.T, r *issuerRegion) {
			// A train on one issuer is one fan-out round.
			const n = 20 // longer than the 8-deep send window
			f := transport.NewFanout(r.is[:1])
			for i := 0; i < n; i++ {
				f.Post(0, []wire.Op{prism.Write(r.key, r.cell(10+i), u64(uint64(1000+i))), prism.Read(r.key, r.cell(10+i), 8)})
			}
			res, err := f.Wait()
			if err != nil || len(res) != n {
				t.Errorf("a round of %d chains: %d results, %v", n, len(res), err)
				return
			}
			for i, rs := range res {
				if len(rs) != 2 || !bytes.Equal(rs[1].Data, u64(uint64(1000+i))) {
					t.Errorf("slot %d holds %+v, want chain %d's results", i, rs, i)
				}
			}
		}},
		{"temp", func(t *testing.T, r *issuerRegion) {
			addr, key := r.is[0].Temp()
			if addr == 0 {
				t.Error("Temp returned no buffer")
				return
			}
			if other, _ := r.is[1].Temp(); other == addr {
				t.Errorf("two connections share the temp buffer at %#x", addr)
			}
			res, err := r.is[0].Issue([]wire.Op{prism.Write(key, addr, u64(9)), prism.Read(key, addr, 8)})
			if err != nil || !bytes.Equal(res[1].Data, u64(9)) {
				t.Errorf("WRITE then READ of the temp buffer: %+v, %v", res, err)
			}
		}},
		{"conditional-per-connection", func(t *testing.T, r *issuerRegion) {
			// §3.4: a CONDITIONAL op executes only if the previous op from
			// its connection succeeded. That state spans requests and is
			// not shared between connections.
			cas := prism.CAS(r.key, r.cell(30), wire.CASGt, u64(1), nil, nil)
			res, err := r.is[0].Issue([]wire.Op{prism.Write(r.key, r.cell(30), u64(5)), cas})
			if err != nil || res[1].Status != wire.StatusCASFailed {
				t.Errorf("a request ending in a failing CAS_GT: %+v, %v", res, err)
				return
			}
			res, err = r.is[1].Issue([]wire.Op{prism.Conditional(prism.Write(r.key, r.cell(31), u64(7)))})
			if err != nil || res[0].Status != wire.StatusOK {
				t.Errorf("a CONDITIONAL WRITE on the other connection: %+v, %v", res, err)
			}
			res, err = r.is[0].Issue([]wire.Op{prism.Conditional(prism.Write(r.key, r.cell(32), u64(9))), prism.Read(r.key, r.cell(32), 8)})
			if err != nil || res[0].Status != wire.StatusNotExecuted || !bytes.Equal(res[1].Data, u64(0)) {
				t.Errorf("a CONDITIONAL WRITE opening the next request after the failure: %+v, %v", res, err)
			}
			res, err = r.is[0].Issue([]wire.Op{prism.Conditional(prism.Write(r.key, r.cell(33), u64(11))), prism.Read(r.key, r.cell(33), 8)})
			if err != nil || res[0].Status != wire.StatusOK || !bytes.Equal(res[1].Data, u64(11)) {
				t.Errorf("a CONDITIONAL WRITE after a successful READ: %+v, %v", res, err)
			}
		}},
		{"fanout-wait-first", func(t *testing.T, r *issuerRegion) {
			f := transport.NewFanout(r.is[:])
			for i := range r.is {
				ops := r.is[i].Ops(1)
				ops[0] = prism.Read(r.key, r.cell(40+i), 8)
				f.Post(i, ops)
			}
			got := f.WaitFirst(1)
			if len(got) != 1 || got[0].Err != nil || len(got[0].Results) != 1 || got[0].Results[0].Status != wire.StatusOK {
				t.Errorf("WaitFirst(1) over two issuers: %+v", got)
				return
			}
			// The straggler lands in no later round.
			ops := r.is[1].Ops(1)
			ops[0] = prism.Read(r.key, r.cell(50), 8)
			f.Post(1, ops)
			if res, err := f.Wait(); err != nil || len(res) != 1 || len(res[0]) != 1 {
				t.Errorf("the round after WaitFirst: %+v, %v", res, err)
			}
		}},
		{"fanout-repeated-issuer", func(t *testing.T, r *issuerRegion) {
			// A group may name one issuer twice: each position posts on it.
			f := transport.NewFanout([]transport.Issuer{r.is[0], r.is[0]})
			for i := 0; i < 2; i++ {
				f.Post(i, []wire.Op{prism.Write(r.key, r.cell(60+i), u64(uint64(60+i))), prism.Read(r.key, r.cell(60+i), 8)})
			}
			res, err := f.Wait()
			if err != nil || len(res) != 2 {
				t.Errorf("a round over {is[0], is[0]}: %d results, %v", len(res), err)
				return
			}
			for i, rs := range res {
				if len(rs) != 2 || !bytes.Equal(rs[1].Data, u64(uint64(60+i))) {
					t.Errorf("slot %d holds %+v, want chain %d's results", i, rs, i)
				}
			}
		}},
	}
	for _, tr := range transports {
		for _, c := range cases {
			t.Run(tr.name+"/"+c.name, func(t *testing.T) {
				var r *issuerRegion
				tr.on(t, func(h transport.Host) { r = register(t, h) }, func(is []transport.Issuer) {
					copy(r.is[:], is)
					c.run(t, r)
				})
			})
		}
	}
	// Two goroutines at once are live only: a simulation process is the
	// engine's one goroutine.
	t.Run("live/shared-socket", sharedSocket)
}

// sharedSocket holds a live socket to the contract's borrowing rule as it
// gains a second connection: results stay valid until the next issue on
// their own connection, whatever the socket's other connections do
// meanwhile. The first connection reads its half of the region alone on
// the socket, so it reads its own response and its results alias the
// read buffer; then a second connection joins and reads its own half, and
// the first one's results must be intact. Then the two issue from two
// goroutines. Each reads a half that holds a pattern of its own, once per
// chain on even rounds and 20 times on odd ones, and checks its last
// results byte for byte, again and again, until its own next Issue: the
// accept frame and the other connection's responses, read through the
// same socket meanwhile, must never land in them.
func sharedSocket(t *testing.T) {
	const rounds, checks, half, reads = 300, 4, issuerCells / 2, 20
	ts := transport.NewServer()
	r := register(t, ts)
	cEnd, sEnd := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); ts.ServeConn(sEnd) }()
	defer func() {
		ts.Shutdown(time.Second)
		<-served
	}()
	c, err := transport.NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	defer c.Close()
	first, err := c.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	patterns := [2][]byte{}
	for i := range patterns {
		patterns[i] = bytes.Repeat([]byte{byte(0xa0 + i)}, 8*half)
		if _, err := first.Issue([]wire.Op{prism.Write(r.key, r.cell(i*half), patterns[i])}); err != nil {
			t.Fatalf("WRITE of connection %d's pattern: %v", i, err)
		}
	}
	ops := [2][]wire.Op{make([]wire.Op, reads), make([]wire.Op, reads)}
	read := func(i, n int) ([]wire.Result, error) {
		chain := ops[i][:n]
		for k := range chain {
			chain[k] = prism.Read(r.key, r.cell(i*half), 8*half)
		}
		res, err := r.is[i].Issue(chain)
		if err == nil && (len(res) != n || !intact(res, patterns[i])) {
			err = fmt.Errorf("%d READs of its half returned %+v", n, res)
		}
		return res, err
	}
	r.is[0] = first
	lastAlone, err := read(0, reads)
	if err != nil {
		t.Fatalf("connection 0 alone on the socket: %v", err)
	}
	if r.is[1], err = c.Connect(); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	for _, n := range []int{1, reads} {
		if _, err := read(1, n); err != nil {
			t.Fatalf("connection 1: %v", err)
		}
	}
	if !intact(lastAlone, patterns[0]) {
		t.Fatal("connection 0's results changed while connection 1 joined the socket and issued")
	}
	var wg sync.WaitGroup
	for i := range r.is {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last []wire.Result
			if i == 0 {
				last = lastAlone
			}
			for n := 0; n < rounds; n++ {
				for range checks {
					if !intact(last, patterns[i]) {
						t.Errorf("connection %d, round %d: its last results changed before its next Issue", i, n)
						return
					}
					runtime.Gosched()
				}
				res, err := read(i, 1+(n%2)*(reads-1))
				if err != nil {
					t.Errorf("connection %d, round %d: %v", i, n, err)
					return
				}
				last = res
			}
		}()
	}
	wg.Wait()
}

// intact reports whether every result's payload is pattern.
func intact(res []wire.Result, pattern []byte) bool {
	for _, x := range res {
		if !bytes.Equal(x.Data, pattern) {
			return false
		}
	}
	return true
}

// transports are the two places a contract case runs: each provisions a
// host and runs body over two connections of one client to it.
var transports = []struct {
	name string
	on   func(t *testing.T, provision func(transport.Host), body func(is []transport.Issuer))
}{
	{"sim", onSim},
	{"live", onLive},
}

// onSim provisions a software-PRISM NIC and runs body inside a simulation
// process over two connections of one client machine to it.
func onSim(t *testing.T, provision func(transport.Host), body func(is []transport.Issuer)) {
	e := sim.NewEngine(1)
	net := fabric.New(e, model.Default().WithNetwork(model.Rack))
	nic := rdma.NewServer(net, "srv", model.SoftwarePRISM)
	provision(nic)
	cli := rdma.NewClient(net, "cli")
	is := []transport.Issuer{cli.Connect(nic), cli.Connect(nic)}
	e.Go("body", func(*sim.Proc) { body(is) })
	e.Run()
	if e.LiveProcs() != 0 {
		t.Error("the process did not finish")
	}
}

// onLive provisions a live server and runs body over two connections of
// one socket to it on a net.Pipe.
func onLive(t *testing.T, provision func(transport.Host), body func(is []transport.Issuer)) {
	ts := transport.NewServer()
	provision(ts)
	cEnd, sEnd := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); ts.ServeConn(sEnd) }()
	c, err := transport.NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	is := make([]transport.Issuer, 2)
	for i := range is {
		cn, err := c.Connect()
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		is[i] = cn
	}
	body(is)
	c.Close()
	ts.Shutdown(time.Second)
	<-served
}

// register provisions the contract's region on host, and its temp
// buffers under the same key.
func register(t *testing.T, host transport.Host) *issuerRegion {
	t.Helper()
	reg, err := host.Space().Register(8 * issuerCells)
	if err != nil {
		t.Fatal(err)
	}
	host.SetConnTempKey(reg.Key)
	return &issuerRegion{key: reg.Key, base: reg.Base}
}
