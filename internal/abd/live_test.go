package abd

import (
	"bytes"
	"net"
	"testing"
	"time"

	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

// servePipe serves one net.Pipe socket on ts and returns a connection on
// its client end.
func servePipe(t *testing.T, ts *transport.Server) *transport.Conn {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	served := make(chan struct{})
	go func() { ts.ServeConn(sEnd); close(served) }()
	tc, err := transport.NewClientConn(cEnd)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tc.Close()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Error("ServeConn did not return after client close")
		}
	})
	conn, err := tc.Connect()
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestStoresProvisionOnLiveHost: a PRISM-RS replica and an ABDLOCK replica
// need nothing of their machine but transport.Host, so they provision on a
// live socket server as they do on the simulated NIC, and what they lay
// out there is what the protocols' verbs expect — §7.3's read and its
// WRITE/ALLOCATE/CAS install chain, and §7.2's lock-then-read, issued over
// a socket.
func TestStoresProvisionOnLiveHost(t *testing.T) {
	const block, blockSize = 3, 32

	t.Run("replica", func(t *testing.T) {
		ts := transport.NewServer()
		rep, err := NewReplica(ts, ReplicaOptions{NBlocks: 8, BlockSize: blockSize, ExtraBuffers: 8})
		if err != nil {
			t.Fatal(err)
		}
		conn, m := servePipe(t, ts), rep.Meta()
		read := func() (Tag, []byte) {
			t.Helper()
			ops := conn.Ops(1)
			ops[0] = prism.ReadIndirect(m.Key, m.entryAddr(block)+8, m.bufSize())
			res, err := conn.Issue(ops)
			if err != nil || res[0].Status != wire.StatusOK {
				t.Fatalf("read phase: status %v, err %v", res[0].Status, err)
			}
			return Tag(prism.BE64(res[0].Data, 0)), res[0].Data[8:]
		}
		if tag, val := read(); tag != MakeTag(1, 0) || !bytes.Equal(val, make([]byte, blockSize)) {
			t.Fatalf("initial block reads tag %v, %d bytes", tag, len(val))
		}

		tag, value := MakeTag(2, 9), bytes.Repeat([]byte{0xAB}, blockSize)
		img := make([]byte, 8+blockSize)
		prism.PutBE64(img, 0, uint64(tag))
		copy(img[8:], value)
		pre := make([]byte, m.entrySize())
		prism.PutBE64(pre, 0, uint64(tag))
		tmp, tmpKey := conn.Temp()
		es := int(m.entrySize())
		ops := conn.Ops(3)
		ops[0] = prism.Write(tmpKey, tmp, pre)
		ops[1] = prism.Conditional(prism.RedirectTo(prism.Allocate(m.FreeList, img), tmpKey, tmp+8))
		ops[2] = prism.Conditional(prism.CASIndirectData(m.Key, m.entryAddr(block), wire.CASGt, tmp,
			prism.FieldMask(es, 0, 8), prism.FullMask(es)))
		res, err := conn.Issue(ops)
		if err != nil || res[0].Status != wire.StatusOK || res[1].Status != wire.StatusOK || res[2].Status != wire.StatusOK {
			t.Fatalf("install chain: %+v, err %v", res, err)
		}
		if got, val := read(); got != tag || !bytes.Equal(val, value) {
			t.Fatalf("after the install the block reads tag %v %x", got, val)
		}
	})

	t.Run("lock-replica", func(t *testing.T) {
		ts := transport.NewServer()
		rep, err := NewLockReplica(ts, 8, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		conn, m := servePipe(t, ts), rep.Meta()
		issue := func(op wire.Op) wire.Result {
			t.Helper()
			ops := conn.Ops(1)
			ops[0] = op
			res, err := conn.Issue(ops)
			if err != nil {
				t.Fatal(err)
			}
			return res[0]
		}
		var cas [16]byte
		if r := issue(prism.ClassicCASBuf(&cas, m.Key, m.blockAddr(block), 0, 7)); r.Status != wire.StatusOK {
			t.Fatalf("lock acquisition: %v", r.Status)
		}
		if r := issue(prism.ClassicCASBuf(&cas, m.Key, m.blockAddr(block), 0, 8)); r.Status != wire.StatusCASFailed {
			t.Fatalf("a second acquisition of a held lock: %v", r.Status)
		}
		r := issue(prism.Read(m.Key, m.blockAddr(block)+8, uint64(8+m.BlockSize)))
		if r.Status != wire.StatusOK || Tag(prism.BE64(r.Data, 0)) != MakeTag(1, 0) || len(r.Data) != 8+blockSize {
			t.Fatalf("locked read: %v, %d bytes", r.Status, len(r.Data))
		}
	})
}
