package rdma

import (
	"testing"
	"time"

	"prism/internal/alloc"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/wire"
)

// TestWireCheckLiveTraffic runs a representative verb workload with
// wire-check mode enabled: every transmitted request and response is
// append-encoded, alias-decoded back, and compared field-for-field
// against the in-memory message (wirecheck.go panics on any mismatch).
// This is the live-traffic proof that the byte codec, the alias decoders,
// and the wire-size accounting agree with what the fabric carries.
func TestWireCheckLiveTraffic(t *testing.T) {
	SetWireCheck(true)
	defer SetWireCheck(false)

	v := newEnv(t, model.SoftwarePRISM, nil)
	fl := alloc.NewFreeList(1, 512, v.reg.Key, nil, 0)
	fl.Post(v.reg.Base + 4096)
	fl.Post(v.reg.Base + 4608)
	v.srv.AddFreeList(fl)
	v.srv.SetRPCHandler(func(payload []byte) ([]byte, time.Duration) {
		return append([]byte("echo:"), payload...), 0
	})

	v.run(t, func(p *sim.Proc) {
		// Plain write/read round trip (response carries payload).
		v.conn.Issue(p, prism.Write(v.reg.Key, v.reg.Base+256, []byte("wire-checked bytes")))
		res := v.conn.Issue(p, prism.Read(v.reg.Key, v.reg.Base+256, 18))
		if string(res[0].Data) != "wire-checked bytes" {
			t.Errorf("read %q", res[0].Data)
		}

		// Failing CAS with masks, then a skipped conditional op: exercises
		// CompareMask/SwapMask encoding and non-OK statuses on the wire.
		seed := make([]byte, 8)
		prism.PutBE64(seed, 0, 10)
		v.conn.Issue(p, prism.Write(v.reg.Key, v.reg.Base, seed))
		stale := make([]byte, 8)
		prism.PutBE64(stale, 0, 5)
		res = v.conn.Issue(p,
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
		v.conn.Issue(p, prism.Write(v.reg.Key, meta, init))
		tag := make([]byte, 8)
		prism.PutBE64(tag, 0, 2)
		tmp := v.conn.TempAddr
		ops := v.conn.Ops(3)
		ops[0] = prism.Write(v.conn.TempKey, tmp, tag)
		ops[1] = prism.Conditional(prism.RedirectTo(prism.Allocate(1, []byte("fresh value")), v.conn.TempKey, tmp+8))
		ops[2] = prism.Conditional(prism.CASIndirectData(v.reg.Key, meta, wire.CASGt, tmp,
			prism.FieldMask(16, 0, 8), prism.FullMask(16)))
		res = v.conn.Issue(p, ops...)
		for i, r := range res {
			if r.Status != wire.StatusOK {
				t.Fatalf("chain op %d status %v", i, r.Status)
			}
		}

		// Two-sided RPC (OpSend + payload-carrying response).
		res = v.conn.Issue(p, prism.Send([]byte("ping")))
		if string(res[0].Data) != "echo:ping" {
			t.Errorf("rpc reply %q", res[0].Data)
		}
	})
}
