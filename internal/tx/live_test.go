package tx

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"prism/internal/memory"
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

// TestStoresProvisionOnLiveHost: a PRISM-TX shard and a FaRM server need
// nothing of their machine but transport.Host, so they provision on a live
// socket server as they do on the simulated NIC, and what they lay out
// there is what the protocols' reads expect — §8.2's execution-phase chain
// and FaRM's index-then-object reads, issued over a socket.
func TestStoresProvisionOnLiveHost(t *testing.T) {
	const key = 5
	value := []byte("served from a live host")

	t.Run("shard", func(t *testing.T) {
		ts := transport.NewServer()
		shard, err := NewShard(ts, ShardOptions{NSlots: 16, MaxValue: 64, ExtraBuffers: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := shard.Load(key, value); err != nil {
			t.Fatal(err)
		}
		conn, m := servePipe(t, ts), shard.Meta()
		slot := m.slotAddr(key)
		ops := conn.Ops(2)
		ops[0] = prism.Read(m.Key, slot+offC, 8)
		ops[1] = prism.ReadBounded(m.Key, slot+offAddr, bufSize(m.MaxValue))
		res, err := conn.Issue(ops)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status != wire.StatusOK || res[1].Status != wire.StatusOK {
			t.Fatalf("read chain statuses %v %v", res[0].Status, res[1].Status)
		}
		ts0, k, v, err := decodeVersion(res[1].Data)
		if err != nil {
			t.Fatal(err)
		}
		if c := Timestamp(prism.BE64(res[0].Data, 0)); c != InitialVersion || ts0 != InitialVersion || k != key || !bytes.Equal(v, value) {
			t.Fatalf("read C=%v and version (%v, key %d, %q), want %v, key %d, %q", c, ts0, k, v, InitialVersion, key, value)
		}
	})

	t.Run("farm", func(t *testing.T) {
		ts := transport.NewServer()
		srv, err := NewFarmServer(ts, ShardOptions{NSlots: 16, MaxValue: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Load(key, value); err != nil {
			t.Fatal(err)
		}
		conn, m := servePipe(t, ts), srv.Meta()
		read := func(addr memory.Addr, n uint64) []byte {
			t.Helper()
			ops := conn.Ops(1)
			ops[0] = prism.Read(m.Key, addr, n)
			res, err := conn.Issue(ops)
			if err != nil || res[0].Status != wire.StatusOK {
				t.Fatalf("read %#x: status %v, err %v", addr, res[0].Status, err)
			}
			return res[0].Data
		}
		ptr := memory.Addr(binary.LittleEndian.Uint64(read(m.indexAddr(key), 8)))
		obj := read(ptr, m.objSize())
		if lock, ver := binary.LittleEndian.Uint64(obj), Timestamp(prism.BE64(obj, 8)); lock != 0 || ver != InitialVersion {
			t.Fatalf("object header: lock %d version %v", lock, ver)
		}
		if k := int64(binary.BigEndian.Uint64(obj[farmHdr+8:])); k != key || !bytes.HasPrefix(obj[farmHdr+16:], value) {
			t.Fatalf("object holds key %d %q", k, obj[farmHdr+16:])
		}
		// The commit protocol's CPU half is attached too: a LOCK at the
		// loaded version succeeds.
		pl := binary.LittleEndian.AppendUint64([]byte{rpcFarmLock}, 7)
		pl = binary.BigEndian.AppendUint64(pl, key)
		pl = binary.BigEndian.AppendUint64(pl, uint64(InitialVersion))
		ops := conn.Ops(1)
		ops[0] = prism.Send(pl)
		if res, err := conn.Issue(ops); err != nil || !rpcOK(res) {
			t.Fatalf("LOCK RPC: %+v, err %v", res, err)
		}
		if holder := binary.LittleEndian.Uint64(read(ptr, 8)); holder != 7 {
			t.Fatalf("after LOCK the lock word holds %d", holder)
		}
	})
}
