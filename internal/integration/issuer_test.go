package integration

import (
	"bytes"
	"encoding/binary"
	"net"
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
	transports := []struct {
		name string
		with func(t *testing.T, body func(r *issuerRegion))
	}{
		{"sim", withSimIssuers},
		{"live", withLiveIssuers},
	}
	for _, tr := range transports {
		for _, c := range cases {
			t.Run(tr.name+"/"+c.name, func(t *testing.T) {
				tr.with(t, func(r *issuerRegion) { c.run(t, r) })
			})
		}
	}
}

// withSimIssuers runs body inside a simulation process over two
// connections of one client machine to a software-PRISM NIC.
func withSimIssuers(t *testing.T, body func(r *issuerRegion)) {
	var r *issuerRegion
	onSim(t, func(h transport.Host) { r = register(t, h) }, func(is []transport.Issuer) {
		copy(r.is[:], is)
		body(r)
	})
}

// withLiveIssuers runs body over two connections of one socket to a live
// server on a net.Pipe.
func withLiveIssuers(t *testing.T, body func(r *issuerRegion)) {
	var r *issuerRegion
	onLive(t, func(h transport.Host) { r = register(t, h) }, func(is []transport.Issuer) {
		copy(r.is[:], is)
		body(r)
	})
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
