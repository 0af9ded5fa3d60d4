package tx

import (
	"encoding/binary"
	"fmt"
	"time"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

// FaRM [10] (§8.1): objects live in a hash table reachable through an
// index of pointers; clients read with one-sided READs (two per access,
// index then object, as in Pilaf) and commit with a three-phase protocol —
// LOCK (RPC), VALIDATE (one-sided version re-reads), UPDATE+UNLOCK (RPC).
//
// Object layout (fixed-size, in-place updates under the lock):
//
//	[ lock (8, LE: holder id or 0) | version (8, BE) | klen | key | value ]
//
// Index slot: [ ptr (8, LE) ].

const farmHdr = 16 // lock + version

// FaRM RPC opcodes.
const (
	rpcFarmLock byte = iota + 10
	rpcFarmUpdate
	rpcFarmUnlock
)

// FarmMeta describes one FaRM server to clients, and its layout to a
// server attached to a forked image of it.
type FarmMeta struct {
	Key       memory.RKey
	IndexBase memory.Addr
	HeapBase  memory.Addr // NSlots objects, in slot order
	NSlots    int64
	MaxValue  int
}

func (m *FarmMeta) indexAddr(idx int64) memory.Addr {
	return m.IndexBase + memory.Addr(idx*8)
}

func (m *FarmMeta) objSize() uint64 {
	return uint64(farmHdr + 8 + 8 + m.MaxValue)
}

// FarmServer owns the index, the object heap, and the commit RPC handlers.
type FarmServer struct {
	host transport.Host
	meta FarmMeta
}

// NewFarmServer provisions the index and object heap on host — the
// simulated NIC or a live socket server.
func NewFarmServer(host transport.Host, opts ShardOptions) (*FarmServer, error) {
	space := host.Space()
	meta := FarmMeta{NSlots: opts.NSlots, MaxValue: opts.MaxValue}
	var err error
	meta.Key, meta.IndexBase, err = alloc.RegisterArray(space, 0, uint64(opts.NSlots), 8)
	if err != nil {
		return nil, fmt.Errorf("tx: farm index: %w", err)
	}
	if _, meta.HeapBase, err = alloc.RegisterArray(space, meta.Key, uint64(opts.NSlots), meta.objSize()); err != nil {
		return nil, fmt.Errorf("tx: farm heap: %w", err)
	}
	return AttachFarmServer(host, meta), nil
}

// AttachFarmServer is the CPU half of NewFarmServer: the index and heap
// described by meta already stand in host's memory (NewFarmServer just
// registered them, or host was forked from a captured image of a server
// that did), and what remains is the commit protocol's RPC handler and
// the published Meta.
func AttachFarmServer(host transport.Host, meta FarmMeta) *FarmServer {
	s := &FarmServer{host: host, meta: meta}
	host.SetRPCHandler(s.handleRPC)
	host.PublishMeta("farm", &s.meta)
	return s
}

// Meta returns the control-plane description.
func (s *FarmServer) Meta() FarmMeta { return s.meta }

// Load installs key=value at InitialVersion.
func (s *FarmServer) Load(key int64, value []byte) error {
	if len(value) > s.meta.MaxValue {
		return fmt.Errorf("tx: value too large")
	}
	idx := ((key % s.meta.NSlots) + s.meta.NSlots) % s.meta.NSlots
	objAddr := s.meta.HeapBase + memory.Addr(uint64(idx)*s.meta.objSize())
	space := s.host.Space()
	img, err := space.WriteView(s.meta.Key, objAddr, s.meta.objSize())
	if err != nil {
		return err
	}
	prism.PutLE64(img, 0, 0) // unlocked; the rest is rewritten per key too
	prism.PutBE64(img, 8, uint64(InitialVersion))
	binary.LittleEndian.PutUint64(img[farmHdr:], 8)
	binary.BigEndian.PutUint64(img[farmHdr+8:], uint64(key))
	n := copy(img[farmHdr+16:], value)
	clear(img[farmHdr+16+n:]) // what a longer value left behind
	return space.WriteU64(s.meta.Key, s.meta.indexAddr(idx), uint64(objAddr))
}

// objAddrFor resolves a key's object (server CPU side).
func (s *FarmServer) objAddrFor(key int64) (memory.Addr, error) {
	idx := ((key % s.meta.NSlots) + s.meta.NSlots) % s.meta.NSlots
	ptr, err := s.host.Space().ReadU64(s.meta.Key, s.meta.indexAddr(idx))
	if err != nil {
		return 0, err
	}
	if ptr == 0 {
		return 0, ErrNotFound
	}
	return memory.Addr(ptr), nil
}

// handleRPC serves the FaRM commit protocol's CPU phases.
//
// LOCK payload:   [op][holder(8)] then per key [key(8) version(8)]
// UPDATE payload: [op][holder(8)] then per key [key(8) version(8) vlen(4) value]
// UNLOCK payload: [op][holder(8)] then per key [key(8)]
func (s *FarmServer) handleRPC(payload []byte) ([]byte, time.Duration) {
	if len(payload) < 9 {
		return []byte{1}, 0
	}
	op := payload[0]
	holder := binary.LittleEndian.Uint64(payload[1:9])
	rest := payload[9:]
	// The CPU's accesses race the NIC's verbs on a live host.
	space := s.host.Space()
	space.Guard().Lock()
	defer space.Guard().Unlock()
	switch op {
	case rpcFarmLock:
		// Lock every key or none: on conflict, roll back acquired locks.
		var acquired []memory.Addr
		n := 0
		for len(rest) >= 16 {
			key := int64(binary.BigEndian.Uint64(rest[:8]))
			version := binary.BigEndian.Uint64(rest[8:16])
			rest = rest[16:]
			n++
			addr, err := s.objAddrFor(key)
			if err != nil {
				break
			}
			raw, _ := space.Peek(s.meta.Key, addr, farmHdr)
			lock := binary.LittleEndian.Uint64(raw[:8])
			ver := prism.BE64(raw, 8)
			if lock != 0 || ver != version {
				for _, a := range acquired {
					space.WriteU64(s.meta.Key, a, 0)
				}
				return []byte{1}, time.Duration(n) * 400 * time.Nanosecond
			}
			space.WriteU64(s.meta.Key, addr, holder)
			acquired = append(acquired, addr)
		}
		return []byte{0}, time.Duration(n) * 400 * time.Nanosecond
	case rpcFarmUpdate:
		n := 0
		for len(rest) >= 20 {
			key := int64(binary.BigEndian.Uint64(rest[:8]))
			version := binary.BigEndian.Uint64(rest[8:16])
			vlen := binary.LittleEndian.Uint32(rest[16:20])
			if len(rest) < 20+int(vlen) {
				return []byte{1}, 0
			}
			value := rest[20 : 20+vlen]
			rest = rest[20+vlen:]
			n++
			addr, err := s.objAddrFor(key)
			if err != nil {
				return []byte{1}, 0
			}
			raw, _ := space.Peek(s.meta.Key, addr, farmHdr)
			if binary.LittleEndian.Uint64(raw[:8]) != holder {
				return []byte{1}, 0 // not our lock: protocol bug
			}
			// Write value, bump version, release the lock.
			img := make([]byte, s.meta.objSize())
			prism.PutBE64(img, 8, version)
			binary.LittleEndian.PutUint64(img[farmHdr:], 8)
			binary.BigEndian.PutUint64(img[farmHdr+8:], uint64(key))
			copy(img[farmHdr+16:], value)
			if err := space.Write(s.meta.Key, addr, img); err != nil {
				return []byte{1}, 0
			}
		}
		return []byte{0}, time.Duration(n) * 800 * time.Nanosecond
	case rpcFarmUnlock:
		n := 0
		for len(rest) >= 8 {
			key := int64(binary.BigEndian.Uint64(rest[:8]))
			rest = rest[8:]
			n++
			addr, err := s.objAddrFor(key)
			if err != nil {
				continue
			}
			raw, _ := space.Peek(s.meta.Key, addr, 8)
			if binary.LittleEndian.Uint64(raw) == holder {
				space.WriteU64(s.meta.Key, addr, 0)
			}
		}
		return []byte{0}, time.Duration(n) * 100 * time.Nanosecond
	default:
		return []byte{1}, 0
	}
}

// FarmClient is a FaRM client, written once over one transport.Issuer per
// server and a fan-out over them.
type FarmClient struct {
	id    uint16
	conns []transport.Issuer
	metas []FarmMeta
	clock uint64

	// Stats
	Commits int64
	Aborts  int64

	// Per-client scratch. Every phase is one fan-out round waited to its
	// end, so a phase may build its RPC payloads (one per shard, empty for
	// a shard it sends nothing) in the buffers the previous one sent.
	// locked marks the shards where the committing transaction holds its
	// write-set locks.
	fan      *transport.Fanout
	payloads [][]byte
	locked   []bool
}

// NewFarmClient builds a client over one issuer per server.
func NewFarmClient(id uint16, conns []transport.Issuer, metas []FarmMeta) *FarmClient {
	if len(conns) != len(metas) || len(conns) == 0 {
		panic("tx: farm connections and metadata must match")
	}
	if id == 0 {
		panic("tx: client id 0 reserved")
	}
	return &FarmClient{id: id, conns: conns, metas: metas, fan: transport.NewFanout(conns),
		payloads: make([][]byte, len(conns)), locked: make([]bool, len(conns))}
}

func (c *FarmClient) shardOf(key int64) int {
	return int(((key % int64(len(c.conns))) + int64(len(c.conns))) % int64(len(c.conns)))
}

// FarmTx is one FaRM transaction. Commit posts in readOrder, order and
// ascending shard order, never in map order (see Tx).
type FarmTx struct {
	c         *FarmClient
	reads     map[int64]farmRead
	readOrder []int64 // read keys in first-read order
	writes    map[int64][]byte
	order     []int64 // write keys in first-write order
	doomed    bool
}

type farmRead struct {
	version Timestamp
	addr    memory.Addr
	shard   int
}

// Begin starts a transaction.
func (c *FarmClient) Begin() *FarmTx {
	return &FarmTx{c: c, reads: make(map[int64]farmRead), writes: make(map[int64][]byte)}
}

// Read fetches a key with FaRM's two one-sided READs (index, object).
func (t *FarmTx) Read(key int64) ([]byte, error) {
	if v, ok := t.writes[key]; ok {
		return v, nil
	}
	c := t.c
	sh := c.shardOf(key)
	m := &c.metas[sh]
	idx := ((key % m.NSlots) + m.NSlots) % m.NSlots
	res, err := c.read(sh, m.indexAddr(idx), 8)
	if err != nil {
		return nil, err
	}
	if res[0].Status != wire.StatusOK {
		return nil, fmt.Errorf("tx: farm index read %v", res[0].Status)
	}
	ptr := memory.Addr(binary.LittleEndian.Uint64(res[0].Data))
	if ptr == 0 {
		return nil, ErrNotFound
	}
	if res, err = c.read(sh, ptr, m.objSize()); err != nil {
		return nil, err
	}
	if res[0].Status != wire.StatusOK {
		return nil, fmt.Errorf("tx: farm object read %v", res[0].Status)
	}
	obj := res[0].Data
	version := Timestamp(prism.BE64(obj, 8))
	k := int64(binary.BigEndian.Uint64(obj[farmHdr+8:]))
	if k != key {
		return nil, fmt.Errorf("tx: farm slot collision (key %d vs %d)", k, key)
	}
	if prev, ok := t.reads[key]; !ok {
		t.readOrder = append(t.readOrder, key)
	} else if prev.version != version {
		t.doomed = true
	}
	t.reads[key] = farmRead{version: version, addr: ptr, shard: sh}
	return append([]byte(nil), obj[farmHdr+16:]...), nil
}

// read issues one READ on server sh.
func (c *FarmClient) read(sh int, addr memory.Addr, n uint64) ([]wire.Result, error) {
	ops := c.conns[sh].Ops(1)
	ops[0] = prism.Read(c.metas[sh].Key, addr, n)
	return c.conns[sh].Issue(ops)
}

// Write buffers a write. FaRM requires the object to have been read first
// (to know its version for locking); Read-before-Write is the natural
// pattern for YCSB-T RMW transactions.
func (t *FarmTx) Write(key int64, value []byte) {
	if _, seen := t.writes[key]; !seen {
		t.order = append(t.order, key)
	}
	t.writes[key] = append([]byte(nil), value...)
}

// Commit runs FaRM's three phases. Returns the commit version (a fresh
// timestamp) or ErrAborted.
func (t *FarmTx) Commit() (Timestamp, error) {
	c := t.c
	c.clock++
	ts := MakeTimestamp(c.clock, c.id)
	if t.doomed {
		c.Aborts++
		return 0, ErrAborted
	}
	for _, key := range t.order {
		if _, ok := t.reads[key]; !ok {
			return 0, fmt.Errorf("tx: farm write of unread key %d", key)
		}
	}

	// --- Phase 1: LOCK write-set objects, grouped per shard.
	res, err := t.rpcPhase(rpcFarmLock, nil, func(pl []byte, key int64) []byte {
		pl = binary.BigEndian.AppendUint64(pl, uint64(key))
		return binary.BigEndian.AppendUint64(pl, uint64(t.reads[key].version))
	})
	if err != nil {
		return 0, err
	}
	failed := false
	for sh, pl := range c.payloads {
		c.locked[sh] = false
		if len(pl) > 0 {
			c.locked[sh], res = rpcOK(res[0]), res[1:]
			failed = failed || !c.locked[sh]
		}
	}
	if failed {
		return 0, t.abort()
	}

	// --- Phase 2: VALIDATE the read set with one-sided READs (§8.1:
	// "they reread all objects in the read set"). Keys we hold locks on
	// revalidate trivially (our own lock, unchanged version) but still pay
	// the read, as in FaRM.
	for _, key := range t.readOrder {
		r := t.reads[key]
		ops := c.conns[r.shard].Ops(1)
		ops[0] = prism.Read(c.metas[r.shard].Key, r.addr, farmHdr)
		c.fan.Post(r.shard, ops)
	}
	vres, err := c.fan.Wait()
	if err != nil {
		return 0, err
	}
	for i, r := range vres {
		valid := r[0].Status == wire.StatusOK
		if valid {
			lock := binary.LittleEndian.Uint64(r[0].Data[:8])
			ver := Timestamp(prism.BE64(r[0].Data, 8))
			// A lock we hold ourselves (write-set key) validates fine.
			valid = (lock == 0 || lock == uint64(c.id)) && ver == t.reads[t.readOrder[i]].version
		}
		if !valid {
			return 0, t.abort()
		}
	}

	// --- Phase 3: UPDATE + UNLOCK.
	res, err = t.rpcPhase(rpcFarmUpdate, nil, func(pl []byte, key int64) []byte {
		value := t.writes[key]
		pl = binary.BigEndian.AppendUint64(pl, uint64(key))
		pl = binary.BigEndian.AppendUint64(pl, uint64(ts))
		pl = binary.LittleEndian.AppendUint32(pl, uint32(len(value)))
		return append(pl, value...)
	})
	if err != nil {
		return 0, err
	}
	for _, r := range res {
		if !rpcOK(r) {
			return 0, fmt.Errorf("tx: farm update failed")
		}
	}
	c.Commits++
	return ts, nil
}

// rpcOK reports whether a commit-protocol RPC was served and succeeded.
func rpcOK(r []wire.Result) bool {
	return r[0].Status == wire.StatusOK && len(r[0].Data) == 1 && r[0].Data[0] == 0
}

// rpcPhase runs one CPU phase of the commit protocol. It groups the write
// set by shard (only the shards marked in only, when given) into one
// payload each — [op | holder(8)], then rec's record for every key of the
// shard in first-write order — sends the payloads in ascending shard order
// and waits for every reply. The replies are in that order; c.payloads
// says which shards they are from.
func (t *FarmTx) rpcPhase(op byte, only []bool, rec func(pl []byte, key int64) []byte) ([][]wire.Result, error) {
	c := t.c
	for sh := range c.payloads {
		c.payloads[sh] = c.payloads[sh][:0]
	}
	for _, key := range t.order {
		sh := c.shardOf(key)
		if only != nil && !only[sh] {
			continue
		}
		pl := c.payloads[sh]
		if len(pl) == 0 {
			pl = binary.LittleEndian.AppendUint64(append(pl, op), uint64(c.id))
		}
		c.payloads[sh] = rec(pl, key)
	}
	for sh, pl := range c.payloads {
		if len(pl) > 0 {
			ops := c.conns[sh].Ops(1)
			ops[0] = prism.Send(pl)
			c.fan.Post(sh, ops)
		}
	}
	return c.fan.Wait()
}

// abort releases the write-set locks this transaction holds and reports
// the abort, or the transport error that stopped the release.
func (t *FarmTx) abort() error {
	t.c.Aborts++
	_, err := t.rpcPhase(rpcFarmUnlock, t.c.locked, func(pl []byte, key int64) []byte {
		return binary.BigEndian.AppendUint64(pl, uint64(key))
	})
	if err != nil {
		return err
	}
	return ErrAborted
}
