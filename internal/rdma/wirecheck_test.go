package rdma

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"prism/internal/alloc"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/wire"
)

// codecIssuer issues on a ProcConn and puts every op chain it sends and
// every result set it gets back through the codec: the encoding is as
// long as RequestWireSize/ResponseWireSize says — what the fabric charges
// for the message — and decodes back to the same fields.
type codecIssuer struct {
	*ProcConn
	t       *testing.T
	checked int // chains round-tripped with their results
}

func (ci *codecIssuer) Issue(ops ...wire.Op) []wire.Result {
	ci.t.Helper()
	req := &wire.Request{Conn: ci.Conn.id, Seq: uint64(ci.checked), Ops: ops}
	b := wire.EncodeRequest(req)
	if len(b) != wire.RequestWireSize(req) {
		ci.t.Fatalf("chain %d encodes to %d bytes, RequestWireSize says %d", ci.checked, len(b), wire.RequestWireSize(req))
	}
	got, err := wire.DecodeRequest(b)
	if err != nil {
		ci.t.Fatalf("chain %d: %v", ci.checked, err)
	}
	if len(got.Ops) != len(ops) || got.Conn != req.Conn || got.Seq != req.Seq {
		ci.t.Fatalf("chain %d decodes to %+v, want %+v", ci.checked, got, req)
	}
	for i := range ops {
		if !sameOp(ops[i], got.Ops[i]) {
			ci.t.Fatalf("chain %d op %d decodes to %+v, want %+v", ci.checked, i, got.Ops[i], ops[i])
		}
	}

	res, _ := ci.ProcConn.Issue(ops)
	resp := &wire.Response{Conn: req.Conn, Seq: req.Seq, Results: res}
	b = wire.EncodeResponse(resp)
	if len(b) != wire.ResponseWireSize(resp) {
		ci.t.Fatalf("results of chain %d encode to %d bytes, ResponseWireSize says %d", ci.checked, len(b), wire.ResponseWireSize(resp))
	}
	back, err := wire.DecodeResponse(b)
	if err != nil {
		ci.t.Fatalf("results of chain %d: %v", ci.checked, err)
	}
	if len(back.Results) != len(res) {
		ci.t.Fatalf("results of chain %d decode to %d results, want %d", ci.checked, len(back.Results), len(res))
	}
	for i, r := range res {
		if x := back.Results[i]; x.Status != r.Status || x.Addr != r.Addr || !bytes.Equal(x.Data, r.Data) {
			ci.t.Fatalf("result %d of chain %d decodes to %+v, want %+v", i, ci.checked, x, r)
		}
	}
	ci.checked++
	return res
}

// sameOp reports whether two ops carry the same fields, a nil and an
// empty payload or mask being the same bytes on the wire.
func sameOp(a, b wire.Op) bool {
	if !bytes.Equal(a.Data, b.Data) || !bytes.Equal(a.CompareMask, b.CompareMask) || !bytes.Equal(a.SwapMask, b.SwapMask) {
		return false
	}
	a.Data, a.CompareMask, a.SwapMask = nil, nil, nil
	b.Data, b.CompareMask, b.SwapMask = nil, nil, nil
	return reflect.DeepEqual(a, b)
}

// TestWireCheckLiveTraffic runs a representative verb workload on the
// simulated NIC through a codecIssuer: every chain the fabric carries and
// every result set it returns round-trips the byte codec, and its encoded
// length is the size the fabric charges. This is the proof on simulated
// traffic that the codec, its decoders and the wire-size accounting agree
// with what the fabric carries.
func TestWireCheckLiveTraffic(t *testing.T) {
	v := newEnv(t, model.SoftwarePRISM, nil)
	fl := alloc.NewFreeList(1, 512, v.reg.Key, nil, 0)
	fl.Post(v.reg.Base + 4096)
	fl.Post(v.reg.Base + 4608)
	v.srv.AddFreeList(fl)
	v.srv.SetRPCHandler(func(payload []byte) ([]byte, time.Duration) {
		return append([]byte("echo:"), payload...), 0
	})

	v.run(t, func(p *sim.Proc) {
		c := &codecIssuer{ProcConn: &ProcConn{Conn: v.conn, Proc: p}, t: t}
		// Plain write/read round trip (response carries payload).
		c.Issue(prism.Write(v.reg.Key, v.reg.Base+256, []byte("wire-checked bytes")))
		res := c.Issue(prism.Read(v.reg.Key, v.reg.Base+256, 18))
		if string(res[0].Data) != "wire-checked bytes" {
			t.Errorf("read %q", res[0].Data)
		}

		// Failing CAS with masks, then a skipped conditional op: exercises
		// CompareMask/SwapMask encoding and non-OK statuses on the wire.
		seed := make([]byte, 8)
		prism.PutBE64(seed, 0, 10)
		c.Issue(prism.Write(v.reg.Key, v.reg.Base, seed))
		stale := make([]byte, 8)
		prism.PutBE64(stale, 0, 5)
		res = c.Issue(
			prism.CAS(v.reg.Key, v.reg.Base, wire.CASGt, stale, prism.FullMask(8), prism.FullMask(8)),
			prism.Conditional(prism.Write(v.reg.Key, v.reg.Base+64, []byte("skipped"))),
		)
		if res[0].Status != wire.StatusCASFailed || res[1].Status != wire.StatusNotExecuted {
			t.Errorf("CAS chain statuses %v %v", res[0].Status, res[1].Status)
		}

		// The canonical ALLOCATE/redirect/indirect-CAS chain, using the
		// connection-owned op scratch as the hot paths do.
		meta := v.reg.Base + 1024
		init := make([]byte, 16)
		prism.PutBE64(init, 0, 1)
		c.Issue(prism.Write(v.reg.Key, meta, init))
		tag := make([]byte, 8)
		prism.PutBE64(tag, 0, 2)
		tmp := c.Conn.TempAddr
		ops := c.Ops(3)
		ops[0] = prism.Write(c.Conn.TempKey, tmp, tag)
		ops[1] = prism.Conditional(prism.RedirectTo(prism.Allocate(1, []byte("fresh value")), c.Conn.TempKey, tmp+8))
		ops[2] = prism.Conditional(prism.CASIndirectData(v.reg.Key, meta, wire.CASGt, tmp,
			prism.FieldMask(16, 0, 8), prism.FullMask(16)))
		res = c.Issue(ops...)
		for i, r := range res {
			if r.Status != wire.StatusOK {
				t.Fatalf("chain op %d status %v", i, r.Status)
			}
		}

		// Two-sided RPC (OpSend + payload-carrying response).
		res = c.Issue(prism.Send([]byte("ping")))
		if string(res[0].Data) != "echo:ping" {
			t.Errorf("rpc reply %q", res[0].Data)
		}
		if c.checked != 7 {
			t.Errorf("%d chains round-tripped the codec, want 7", c.checked)
		}
	})
}
