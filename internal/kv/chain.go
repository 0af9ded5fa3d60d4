// Verb-program clients for PRISM-KV (DESIGN.md §14) and the linked-chain store the
// fig-chase experiment measures them on.
//
// Two layouts exercise the CHASE/SCAN programs:
//
//   - The standard PRISM-KV hash table (layout.go): Scan streams a slot
//     window's entries under a byte budget.
//
//   - ChainStore, a bucketed singly-linked-list store built for pointer
//     chasing with a controllable chain depth. Keys 0..Buckets*Depth-1
//     map key k to position k%Depth of bucket k/Depth, so looking up k
//     takes exactly k%Depth+1 pointer hops. Three lookups walk it:
//     ChaseGet (one ProgChaseList round trip), HopGet (one round trip
//     per hop — the classic one-sided baseline), and RPCGet (one round
//     trip, but the server's host CPU walks the chain).
//
// Chain node layout (chainNodeHeader + MaxValue bytes):
//
//	[ next (8, little-endian) | key (8, big-endian) | vlen (8, LE) | value ]
//
// The key is big-endian so the CHASE match predicate can reuse the
// enhanced-CAS comparator, which orders operands as big-endian integers.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

// --- SCAN over the standard hash table ---

// appendScanProg encodes the SCAN program for slots [startIdx, NSlots).
func (m *Meta) appendScanProg(buf []byte, startIdx int64) []byte {
	p := prism.Program{
		NextOff:  8,
		Stride:   slotSize,
		StartIdx: uint64(startIdx),
		NSlots:   uint64(m.NSlots),
	}
	return prism.AppendProgram(buf, &p, nil)
}

// Scan reads one budget-bounded window of the table starting at slot
// start, calling visit for every entry (views are valid only during the
// call). It returns the next slot index — NSlots when the table is
// exhausted — so callers iterate: for i := int64(0); i < nslots; { i, _ = c.Scan(...) }.
func (c *Client) Scan(start int64, budget uint64, visit func(key int64, value []byte) error) (int64, error) {
	c.progBuf = c.meta.appendScanProg(c.progBuf[:0], start)
	ops := c.conn.Ops(1)
	ops[0] = prism.Scan(c.meta.Key, c.meta.HashBase, c.progBuf, budget)
	res, err := c.conn.Issue(ops)
	if err != nil {
		return start, err
	}
	if res[0].Status != wire.StatusOK {
		return start, fmt.Errorf("kv: SCAN status %v", res[0].Status)
	}
	err = prism.ScanEntries(res[0].Data, func(e []byte) error {
		k, v, err := decodeEntry(e)
		if err != nil {
			return err
		}
		return visit(k, v)
	})
	return int64(res[0].Addr), err
}

// --- The linked-chain store ---

// Chain node field offsets.
const (
	chainNodeNext   = 0
	chainNodeKey    = 8
	chainNodeVLen   = 16
	chainNodeHeader = 24
)

// chainRPCStepCost is the host-CPU charge per chain hop of the rpcChainGet
// baseline (pointer dereference + key compare, same order as the NIC-side
// ProgStepCost so the comparison isolates round trips, not CPU speed).
const chainRPCStepCost = 150 * time.Nanosecond

// ChainOptions sizes a ChainStore.
type ChainOptions struct {
	Buckets  int64
	Depth    int64 // nodes per bucket chain
	MaxValue int   // largest value size
}

// ChainMeta is the client control-plane description of a chain store.
type ChainMeta struct {
	Key      memory.RKey
	HeadBase memory.Addr // Buckets 8-byte head pointer cells
	NodeBase memory.Addr // Buckets*Depth nodes, bucket-major
	Buckets  int64
	Depth    int64
	MaxValue int
}

func (m *ChainMeta) nodeSize() uint64 { return chainNodeHeader + uint64(m.MaxValue) }

func (m *ChainMeta) headAddr(bucket int64) memory.Addr {
	return m.HeadBase + memory.Addr(bucket*8)
}

func (m *ChainMeta) nodeAddr(bucket, pos int64) memory.Addr {
	return m.NodeBase + memory.Addr(uint64(bucket*m.Depth+pos)*m.nodeSize())
}

// locate maps a key to its bucket and chain position.
func (m *ChainMeta) locate(key int64) (bucket, pos int64, err error) {
	if key < 0 || key >= m.Buckets*m.Depth {
		return 0, 0, fmt.Errorf("kv: chain key %d outside [0,%d)", key, m.Buckets*m.Depth)
	}
	return key / m.Depth, key % m.Depth, nil
}

// chaseSteps bounds one CHASE issue over a chain.
func (m *ChainMeta) chaseSteps() uint8 {
	if m.Depth < prism.MaxChaseSteps {
		return uint8(m.Depth)
	}
	return prism.MaxChaseSteps
}

// ChainStore provisions the bucketed linked-list layout on a transport
// host (the simulated NIC or a live socket server), publishes its
// ChainMeta and serves the host-CPU-GET RPC.
type ChainStore struct {
	host   transport.Host
	meta   ChainMeta
	rpcBuf []byte // RPC reply scratch; dispatch is serialized (see Server.retired)
}

// NewChainStoreOn registers the head cells and the nodes on host and links
// them. Every node's next pointer and key are installed up front (the
// chain shape is static); Load fills values.
func NewChainStoreOn(host transport.Host, opts ChainOptions) (*ChainStore, error) {
	if opts.Buckets <= 0 || opts.Depth <= 0 {
		return nil, errors.New("kv: chain store needs positive buckets and depth")
	}
	space := host.Space()
	meta := ChainMeta{Buckets: opts.Buckets, Depth: opts.Depth, MaxValue: opts.MaxValue}
	var err error
	meta.Key, meta.HeadBase, err = alloc.RegisterArray(space, 0, uint64(opts.Buckets), 8)
	if err == nil {
		_, meta.NodeBase, err = alloc.RegisterArray(space, meta.Key, uint64(opts.Buckets*opts.Depth), meta.nodeSize())
	}
	if err != nil {
		return nil, fmt.Errorf("kv: chain registration: %w", err)
	}
	var cell [8]byte
	var hdr [chainNodeHeader]byte
	for b := int64(0); b < opts.Buckets; b++ {
		prism.PutLE64(cell[:], 0, uint64(meta.nodeAddr(b, 0)))
		if err := space.Write(meta.Key, meta.headAddr(b), cell[:]); err != nil {
			return nil, err
		}
		for pos := int64(0); pos < opts.Depth; pos++ {
			next := uint64(0)
			if pos+1 < opts.Depth {
				next = uint64(meta.nodeAddr(b, pos+1))
			}
			prism.PutLE64(hdr[:], chainNodeNext, next)
			prism.PutBE64(hdr[:], chainNodeKey, uint64(b*opts.Depth+pos))
			prism.PutLE64(hdr[:], chainNodeVLen, 0)
			if err := space.Write(meta.Key, meta.nodeAddr(b, pos), hdr[:]); err != nil {
				return nil, err
			}
		}
	}
	s := &ChainStore{host: host, meta: meta}
	host.SetRPCHandler(s.handleRPC)
	host.PublishMeta("chain", &s.meta)
	return s, nil
}

// Meta returns the client control-plane description.
func (s *ChainStore) Meta() ChainMeta { return s.meta }

// Load installs key's value in place (the chain shape is static, so a
// load is just a value write into the key's node).
func (s *ChainStore) Load(key int64, value []byte) error {
	if len(value) > s.meta.MaxValue {
		return ErrTooLarge
	}
	bucket, pos, err := s.meta.locate(key)
	if err != nil {
		return err
	}
	space := s.host.Space()
	space.Guard().Lock()
	defer space.Guard().Unlock()
	node := s.meta.nodeAddr(bucket, pos)
	var vlen [8]byte
	prism.PutLE64(vlen[:], 0, uint64(len(value)))
	if err := space.Write(s.meta.Key, node+chainNodeVLen, vlen[:]); err != nil {
		return err
	}
	return space.Write(s.meta.Key, node+chainNodeHeader, value)
}

// handleRPC serves the host-CPU GET baseline.
func (s *ChainStore) handleRPC(payload []byte) ([]byte, time.Duration) {
	if len(payload) < 9 || payload[0] != rpcChainGet {
		return nil, 0
	}
	return s.chainGet(int64(binary.BigEndian.Uint64(payload[1:])))
}

// chainGet walks the key's chain on the host CPU — the RPC baseline a
// CHASE program replaces. Reply: [found(1) | value]. The walk reads
// through the same pointers a client or program would; it does not use
// position arithmetic, so it is charged per hop.
func (s *ChainStore) chainGet(key int64) ([]byte, time.Duration) {
	bucket, _, err := s.meta.locate(key)
	if err != nil {
		return []byte{0}, 0
	}
	space := s.host.Space()
	space.Guard().Lock()
	defer space.Guard().Unlock()
	cur, err := space.ReadU64(s.meta.Key, s.meta.headAddr(bucket))
	if err != nil {
		return []byte{0}, 0
	}
	steps := int64(0)
	for cur != 0 && steps < s.meta.Depth {
		steps++
		node := memory.Addr(cur)
		hdr, err := space.Peek(s.meta.Key, node, chainNodeHeader)
		if err != nil {
			return []byte{0}, time.Duration(steps) * chainRPCStepCost
		}
		if int64(prism.BE64(hdr, chainNodeKey)) == key {
			vlen := prism.LE64(hdr, chainNodeVLen)
			val, err := space.Peek(s.meta.Key, node+chainNodeHeader, vlen)
			if err != nil {
				return []byte{0}, time.Duration(steps) * chainRPCStepCost
			}
			s.rpcBuf = append(append(s.rpcBuf[:0], 1), val...)
			return s.rpcBuf, time.Duration(steps) * chainRPCStepCost
		}
		cur = prism.LE64(hdr, chainNodeNext)
	}
	return []byte{0}, time.Duration(steps) * chainRPCStepCost
}

// --- Chain clients ---

// decodeChainNode extracts the value from a whole-node read.
func decodeChainNode(node []byte, key int64) ([]byte, error) {
	if len(node) < chainNodeHeader {
		return nil, fmt.Errorf("kv: chain node truncated (%d bytes)", len(node))
	}
	if got := int64(prism.BE64(node, chainNodeKey)); got != key {
		return nil, fmt.Errorf("kv: chain node holds key %d, want %d", got, key)
	}
	vlen := prism.LE64(node, chainNodeVLen)
	if uint64(len(node)) < chainNodeHeader+vlen {
		return nil, fmt.Errorf("kv: chain value truncated")
	}
	return node[chainNodeHeader : chainNodeHeader+vlen], nil
}

// ChainClient walks a ChainStore, written once against a transport.Issuer.
type ChainClient struct {
	conn transport.Issuer
	meta ChainMeta

	// Hops is the client-observed round-trip count of HopGet walks —
	// what CHASE's rtts_saved is measured against.
	Hops int64

	progBuf  []byte
	matchBuf [8]byte
	rpcBuf   [9]byte
}

// Meta returns the chain description the client was built with.
func (c *ChainClient) Meta() ChainMeta { return c.meta }

// NewChainClient builds a client over a connection to a ChainStore.
func NewChainClient(conn transport.Issuer, meta ChainMeta) *ChainClient {
	return &ChainClient{conn: conn, meta: meta}
}

// appendChaseProg encodes the list-chase program for one bucket walk.
func (m *ChainMeta) appendChaseProg(buf []byte, match []byte) []byte {
	p := prism.Program{
		Kind:     prism.ProgChaseList,
		MaxSteps: m.chaseSteps(),
		MatchOff: chainNodeKey,
		NextOff:  chainNodeNext,
	}
	return prism.AppendProgram(buf, &p, match)
}

// ChaseGet looks up key with one CHASE program: the NIC walks the chain
// and returns the whole matched node in a single round trip.
func (c *ChainClient) ChaseGet(key int64) ([]byte, error) {
	bucket, _, err := c.meta.locate(key)
	if err != nil {
		return nil, err
	}
	prism.PutBE64(c.matchBuf[:], 0, uint64(key))
	target := c.meta.headAddr(bucket)
	for {
		c.progBuf = c.meta.appendChaseProg(c.progBuf[:0], c.matchBuf[:])
		ops := c.conn.Ops(1)
		ops[0] = prism.Chase(c.meta.Key, target, c.progBuf, wire.CASEq, nil, c.meta.nodeSize())
		res, err := c.conn.Issue(ops)
		if err != nil {
			return nil, err
		}
		switch res[0].Status {
		case wire.StatusOK:
			return decodeChainNode(res[0].Data, key)
		case wire.StatusNotFound:
			return nil, ErrNotFound
		case wire.StatusStepLimit:
			target = res[0].Addr // the pointer cell to resume from
		default:
			return nil, fmt.Errorf("kv: CHASE status %v", res[0].Status)
		}
	}
}

// HopGet looks up key the classic one-sided way: an indirect READ
// through the head cell, then one direct READ per hop using the next
// pointer learned from the previous node — one round trip per hop.
func (c *ChainClient) HopGet(key int64) ([]byte, error) {
	bucket, _, err := c.meta.locate(key)
	if err != nil {
		return nil, err
	}
	var addr memory.Addr
	for hop := int64(0); hop < c.meta.Depth; hop++ {
		ops := c.conn.Ops(1)
		if hop == 0 {
			ops[0] = prism.ReadIndirect(c.meta.Key, c.meta.headAddr(bucket), c.meta.nodeSize())
		} else {
			ops[0] = prism.Read(c.meta.Key, addr, c.meta.nodeSize())
		}
		res, err := c.conn.Issue(ops)
		if err != nil {
			return nil, err
		}
		if res[0].Status == wire.StatusNAKAccess && hop == 0 {
			return nil, ErrNotFound // null head pointer
		}
		if res[0].Status != wire.StatusOK {
			return nil, fmt.Errorf("kv: hop READ status %v", res[0].Status)
		}
		c.Hops++
		node := res[0].Data
		if int64(prism.BE64(node, chainNodeKey)) == key {
			return decodeChainNode(node, key)
		}
		next := prism.LE64(node, chainNodeNext)
		if next == 0 {
			return nil, ErrNotFound
		}
		addr = memory.Addr(next)
	}
	return nil, ErrNotFound
}

// RPCGet looks up key with one two-sided round trip; the server's host
// CPU walks the chain (the rpcChainGet handler).
func (c *ChainClient) RPCGet(key int64) ([]byte, error) {
	c.rpcBuf[0] = rpcChainGet
	binary.BigEndian.PutUint64(c.rpcBuf[1:], uint64(key))
	ops := c.conn.Ops(1)
	ops[0] = prism.Send(c.rpcBuf[:])
	res, err := c.conn.Issue(ops)
	if err != nil {
		return nil, err
	}
	if res[0].Status != wire.StatusOK {
		return nil, fmt.Errorf("kv: chain RPC status %v", res[0].Status)
	}
	if len(res[0].Data) < 1 || res[0].Data[0] == 0 {
		return nil, ErrNotFound
	}
	return res[0].Data[1:], nil
}
