package kv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

// Live-transport side of PRISM-KV: the kvCore protocol issued over a
// transport.Conn (tcp or unix socket) against a prismd server. The
// control plane — the Meta the simulator hands to clients in-process —
// travels over the wire as an rpcMeta exchange, so a live client needs
// nothing but an address.

// appendMeta encodes m (little-endian, fixed header then one record per
// free list). The encoding is an internal protocol detail shared by
// handleRPC and FetchMeta.
func appendMeta(b []byte, m *Meta) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Key))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.HashBase))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.NSlots))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Hash))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.MaxValue))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.FreeLists)))
	for _, fl := range m.FreeLists {
		b = binary.LittleEndian.AppendUint32(b, fl.ID)
		b = binary.LittleEndian.AppendUint64(b, fl.BufSize)
	}
	return b
}

const metaHeaderLen = 4 + 8 + 8 + 4 + 8 + 4

// decodeMeta parses an appendMeta encoding.
func decodeMeta(b []byte) (Meta, error) {
	var m Meta
	if len(b) < metaHeaderLen {
		return m, errors.New("kv: short meta reply")
	}
	m.Key = memory.RKey(binary.LittleEndian.Uint32(b))
	m.HashBase = memory.Addr(binary.LittleEndian.Uint64(b[4:]))
	m.NSlots = int64(binary.LittleEndian.Uint64(b[12:]))
	m.Hash = Hash(binary.LittleEndian.Uint32(b[20:]))
	m.MaxValue = int(binary.LittleEndian.Uint64(b[24:]))
	n := int(binary.LittleEndian.Uint32(b[32:]))
	b = b[metaHeaderLen:]
	if len(b) != n*12 {
		return m, fmt.Errorf("kv: meta reply has %d bytes for %d free lists", len(b), n)
	}
	for i := 0; i < n; i++ {
		m.FreeLists = append(m.FreeLists, FreeListInfo{
			ID:      binary.LittleEndian.Uint32(b[i*12:]),
			BufSize: binary.LittleEndian.Uint64(b[i*12+4:]),
		})
	}
	return m, nil
}

// controlRPC issues a one-byte control-plane RPC over conn and returns
// the reply (valid until the next issue on conn).
func controlRPC(conn *transport.Conn, op byte) ([]byte, error) {
	ops := conn.Ops(1)
	ops[0] = prism.Send([]byte{op})
	res, err := conn.Issue(ops)
	if err != nil {
		return nil, err
	}
	if res[0].Status != wire.StatusOK {
		return nil, fmt.Errorf("kv: control RPC %d status %v", op, res[0].Status)
	}
	return res[0].Data, nil
}

// FetchMeta retrieves the server's control-plane description over conn
// (an rpcMeta SEND/reply exchange).
func FetchMeta(conn *transport.Conn) (Meta, error) {
	b, err := controlRPC(conn, rpcMeta)
	if err != nil {
		return Meta{}, err
	}
	return decodeMeta(b)
}

// LiveClient is PRISM-KV over a live transport connection: kvCore
// issuing straight through a *transport.Conn (real blocking issues,
// wall-clock RNR backoff, transport errors surfaced).
type LiveClient struct{ kvCore }

// NewLiveClient wraps a live connection to a PRISM-KV server.
func NewLiveClient(conn *transport.Conn, meta Meta, clientID uint16) *LiveClient {
	return &LiveClient{newCore(conn, meta, clientID)}
}

// dialConn connects to a prismd server at addr and opens one connection.
func dialConn(addr string) (*transport.Client, *transport.Conn, error) {
	tc, err := transport.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	conn, err := tc.Connect()
	if err != nil {
		tc.Close()
		return nil, nil, err
	}
	return tc, conn, nil
}

// DialLive connects to a prismd server at addr, opens one connection,
// and fetches the store metadata. clientID salts the client's tags.
func DialLive(addr string, clientID uint16) (*transport.Client, *LiveClient, error) {
	tc, conn, err := dialConn(addr)
	if err != nil {
		return nil, nil, err
	}
	meta, err := FetchMeta(conn)
	if err != nil {
		tc.Close()
		return nil, nil, err
	}
	return tc, NewLiveClient(conn, meta, clientID), nil
}
