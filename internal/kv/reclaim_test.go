package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/transport"
)

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

// TestReclaimRepostsAcceptedBatch: an accepted reclamation batch of n
// records leaves nothing pending and n more buffers on its free list. On
// a live socket that holds once the reply is read: every chain runs inside
// one hold of the space guard, which RecycleBuffers takes too, so no chain
// is in flight when it flushes. On the simulated NIC, where a chain spans
// time, it holds once the engine drains.
func TestReclaimRepostsAcceptedBatch(t *testing.T) {
	const n = 5
	for _, tr := range []struct {
		name string
		live bool
		run  func(provision func(transport.Host), body func(transport.Issuer))
	}{
		{"sim", false, runOverSim},
		{"live", true, func(provision func(transport.Host), body func(transport.Issuer)) {
			runOverLive(t, provision, body)
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			var host transport.Host
			var fl *alloc.FreeList
			var retired []memory.Addr // popped before serving, held by no one
			provision := func(h transport.Host) {
				srv, err := NewServerOn(h, DefaultOptions(16, 32))
				if err != nil {
					t.Fatal(err)
				}
				host, fl = h, h.FreeList(srv.meta.FreeLists[0].ID)
				for range n {
					a, err := fl.Pop()
					if err != nil {
						t.Fatal(err)
					}
					retired = append(retired, a)
				}
			}
			// Each count is read under the guard, as beside a serving socket.
			counts := func() (pending, free int) {
				g := host.Space().Guard()
				g.Lock()
				defer g.Unlock()
				return fl.Pending(), fl.Len()
			}
			var before int
			settled := func(when string) {
				t.Helper()
				if pending, free := counts(); pending != 0 || free != before+n {
					t.Errorf("%s: %d buffers pending and %d free, want 0 and %d", when, pending, free, before+n)
				}
			}
			tr.run(provision, func(conn transport.Issuer) {
				_, before = counts()
				payload := []byte{rpcFree}
				for _, a := range retired {
					payload = binary.LittleEndian.AppendUint32(payload, fl.ID)
					payload = binary.LittleEndian.AppendUint64(payload, uint64(a))
				}
				ops := conn.Ops(1)
				ops[0] = prism.Send(payload)
				res, err := conn.Issue(ops)
				if err != nil || !res[0].Status.OK() || !bytes.Equal(res[0].Data, []byte{0}) {
					t.Errorf("batch of %d: reply %v, err %v; want status OK and [0]", n, res, err)
					return
				}
				if tr.live {
					settled("once the reply is read")
				}
			})
			if !tr.live {
				settled("once the engine drains")
			}
		})
	}
}
