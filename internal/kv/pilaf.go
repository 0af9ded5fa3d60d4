package kv

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"time"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// Pilaf [31] stores a hash table of pointers into an extents region. GETs
// are two one-sided READs (hash slot, then object) with self-verifying
// CRCs to detect racing server-side writes; PUTs are RPCs executed by the
// server CPU (§6). "Pilaf (software RDMA)" is the same protocol with the
// server's one-sided path running in the software stack.
//
// Pilaf hash slot layout (32 bytes):
//
//	[ inuse (8, LE) | ptr (8, LE) | len (8, LE) | slotCRC (8, LE) ]
//
// Object layout in extents: [ klen(8) | key(8) | value | entryCRC(8) ].
// Both CRCs must validate client-side; a mismatch means a concurrent
// server-side PUT and the client retries (the paper attributes ~2 µs of
// GET latency to CRC work).
//
// Each CRC field is a 64-bit check: the CRC-32C of the bytes it covers in
// its high half and their CRC-32/IEEE in its low half (pilafCRC). Pilaf's
// paper uses a CRC-64; two CRC-32s are as wide and both are computed in
// hardware on amd64 (DESIGN.md §6). The client's checking is charged as
// modeled time (an Issuer.Sleep of crcCost), so the choice moves no
// simulated nanosecond.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pilafCRC is the self-verifying check of b. b must already be on the
// heap: crc32's assembly makes every argument escape, so a stack array
// passed here would be allocated afresh on every call.
func pilafCRC(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(b))
}

const pilafSlotSize = 32

// PilafServer owns the hash table and extents and serves PUT RPCs on a
// transport host, whose StageWrites tears its PUT's stores.
type PilafServer struct {
	host transport.Host
	meta PilafMeta

	extents pilafExtents

	// index and slotOwner are the server CPU's coherent view of the hash
	// table. The CPU's stores to registered memory are staged (so remote
	// one-sided readers can observe torn state, which Pilaf's CRCs catch),
	// but a CPU always sees its own stores via store forwarding — so
	// server-side lookups must come from here, never from re-reading the
	// (possibly still-staged) memory. Like the extents, they change only
	// under the space guard (install).
	index     forkedIndex[pilafRef] // key -> current extent
	slotOwner forkedIndex[bool]     // slot -> whether a key owns it

	// Puts counts RPC PUTs executed by the server CPU.
	Puts int64

	// loadBuf is Load's entry and slot images, reused from key to key.
	loadBuf []byte
}

// pilafRef is where a key's entry lives. Its zero value is no entry: a
// memory.Space never registers address 0.
type pilafRef struct {
	slot int64
	ptr  memory.Addr
	len  uint64 // bytes of the entry stored there
	cap  uint64 // bytes of the extent: what replacing the entry retires
}

// forkedIndex is a table over dense int64 keys as one server sees it:
// flat holds keys [0, len(flat)), its zero value meaning absent, and own
// holds the keys outside it. A server built directly writes flat. A
// template instance shares its template's flat, never writes it, and keeps
// every store of its own in own, which get reads first. Pilaf never
// deletes a key or frees a slot, so own needs no tombstones.
type forkedIndex[V comparable] struct {
	flat   []V
	own    map[int64]V
	shared bool // flat is a template's
}

func (x *forkedIndex[V]) get(k int64) (V, bool) {
	if v, ok := x.own[k]; ok {
		return v, true
	}
	var zero V
	if uint64(k) < uint64(len(x.flat)) && x.flat[k] != zero {
		return x.flat[k], true
	}
	return zero, false
}

func (x *forkedIndex[V]) set(k int64, v V) {
	if !x.shared && uint64(k) < uint64(len(x.flat)) {
		x.flat[k] = v
		return
	}
	if x.own == nil {
		x.own = make(map[int64]V)
	}
	x.own[k] = v
}

// fork returns a template instance's view of x, which the instance's
// stores never reach.
func (x *forkedIndex[V]) fork() forkedIndex[V] {
	return forkedIndex[V]{flat: x.flat, own: maps.Clone(x.own), shared: true}
}

// pilafExtents is the server CPU's extent allocator: recycled extents
// first fit, else a bump pointer over the slab registered last. Like
// alloc.FreeList it registers memory one slab at a time, as entries need
// it — room is how many largest-size entries it may still register, of
// Options.BuffersPerClass — so a store's footprint follows its load and a
// fork's PUT privatizes the slab it writes, not the whole store.
type pilafExtents struct {
	free      []pilafExtent // recycled, oldest first
	next, end memory.Addr   // unallocated tail of the slab registered last
	room      int
}

type pilafExtent struct {
	ptr memory.Addr
	cap uint64
}

// PilafMeta is the client control-plane description.
type PilafMeta struct {
	Key      memory.RKey
	HashBase memory.Addr
	NSlots   int64
	Hash     Hash
	MaxValue int
}

// NewPilafServer provisions Pilaf on any transport host — the simulated
// NIC or a live socket server. The object store may grow to
// opts.BuffersPerClass entries of opts.MaxValue bytes — sized like
// PRISM-KV's buffer pool: one entry per slot plus slack for
// in-place-replacement churn.
func NewPilafServer(host transport.Host, opts Options) (*PilafServer, error) {
	space := host.Space()
	key, base, err := alloc.RegisterArray(space, 0, uint64(opts.NSlots), pilafSlotSize)
	if err != nil {
		return nil, fmt.Errorf("kv: pilaf hash table: %w", err)
	}
	s := &PilafServer{
		host:      host,
		extents:   pilafExtents{room: opts.BuffersPerClass},
		index:     forkedIndex[pilafRef]{flat: make([]pilafRef, opts.NSlots)},
		slotOwner: forkedIndex[bool]{flat: make([]bool, opts.NSlots)},
		meta: PilafMeta{
			Key:      key,
			HashBase: base,
			NSlots:   opts.NSlots,
			Hash:     opts.Hash,
			MaxValue: opts.MaxValue,
		},
	}
	host.SetRPCHandler(s.handleRPC)
	return s, nil
}

// Meta returns the client description.
func (s *PilafServer) Meta() PilafMeta { return s.meta }

func pilafEntrySize(valueLen int) uint64 {
	return uint64(8 + 8 + valueLen + 8) // klen | key | value | crc
}

// pilafAppendEntry appends key's extent image to dst.
func pilafAppendEntry(dst []byte, key int64, value []byte) []byte {
	off := len(dst)
	dst = appendEntry(dst, key, value)
	return binary.LittleEndian.AppendUint64(dst, pilafCRC(dst[off:]))
}

func pilafDecodeEntry(b []byte) (key int64, value []byte, ok bool) {
	if len(b) < 24 {
		return 0, nil, false
	}
	crc := binary.LittleEndian.Uint64(b[len(b)-8:])
	if pilafCRC(b[:len(b)-8]) != crc {
		return 0, nil, false
	}
	if binary.LittleEndian.Uint64(b) != 8 {
		return 0, nil, false
	}
	key = int64(binary.BigEndian.Uint64(b[8:]))
	return key, b[16 : len(b)-8], true
}

// pilafAppendSlot appends the image of an in-use slot to dst.
func pilafAppendSlot(dst []byte, ptr memory.Addr, length uint64) []byte {
	off := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, 1) // inuse
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ptr))
	dst = binary.LittleEndian.AppendUint64(dst, length)
	return binary.LittleEndian.AppendUint64(dst, pilafCRC(dst[off:]))
}

func pilafDecodeSlot(b []byte) (inuse bool, ptr memory.Addr, length uint64, ok bool) {
	if len(b) != pilafSlotSize {
		return false, 0, 0, false
	}
	// A never-written slot is all zeros: decode as empty rather than as a
	// CRC mismatch (which signals a torn concurrent update and retries).
	// No torn update zeroes a written slot whole.
	if [pilafSlotSize]byte(b) == [pilafSlotSize]byte{} {
		return false, 0, 0, true
	}
	crc := binary.LittleEndian.Uint64(b[24:])
	if pilafCRC(b[:24]) != crc {
		return false, 0, 0, false
	}
	return binary.LittleEndian.Uint64(b) == 1,
		memory.Addr(binary.LittleEndian.Uint64(b[8:])),
		binary.LittleEndian.Uint64(b[16:]),
		true
}

// allocExtent returns an extent of at least n bytes (n at most the largest
// entry's): the first recycled one that fits, handed out whole, else n
// fresh bytes, registering the next slab when the last has no room for
// them. A slab is a whole number of largest-size entries, so a store of
// such entries (every figure's) strands nothing at a slab's end.
func (s *PilafServer) allocExtent(n uint64) (pilafExtent, error) {
	x := &s.extents
	for i, f := range x.free {
		if f.cap >= n {
			x.free = append(x.free[:i], x.free[i+1:]...)
			return f, nil
		}
	}
	if uint64(x.end-x.next) < n {
		entryBytes := pilafEntrySize(s.meta.MaxValue)
		count := min(max(1, int(alloc.SlabBytes/entryBytes)), x.room)
		if count <= 0 {
			return pilafExtent{}, fmt.Errorf("kv: pilaf extents full")
		}
		r, err := s.host.Space().RegisterShared(s.meta.Key, uint64(count)*entryBytes)
		if err != nil {
			return pilafExtent{}, fmt.Errorf("kv: pilaf extents: %w", err)
		}
		x.next, x.end, x.room = r.Base, r.End(), x.room-count
	}
	ext := pilafExtent{ptr: x.next, cap: n}
	x.next += memory.Addr(n)
	return ext, nil
}

// install is the server CPU's half of storing key's n-byte entry: it keeps
// the key's slot on an overwrite (retiring the old extent) or probes for a
// free one on an insert, allocates the extent, and records both in the
// coherent index. The caller holds the space guard, and stores the entry
// at dst and the slot image at slotAddr.
func (s *PilafServer) install(key int64, n uint64) (slotAddr, dst memory.Addr, err error) {
	if n > pilafEntrySize(s.meta.MaxValue) {
		return 0, 0, fmt.Errorf("kv: pilaf value exceeds MaxValue %d", s.meta.MaxValue)
	}
	var slot int64
	ref, overwrite := s.index.get(key)
	if overwrite {
		slot = ref.slot
		s.extents.free = append(s.extents.free, pilafExtent{ptr: ref.ptr, cap: ref.cap})
	} else {
		slot = slotIndex(s.meta.Hash, key, s.meta.NSlots)
		for probes := int64(0); ; probes++ {
			if probes == s.meta.NSlots {
				return 0, 0, fmt.Errorf("kv: pilaf hash table full")
			}
			if _, taken := s.slotOwner.get(slot); !taken {
				break
			}
			slot = (slot + 1) % s.meta.NSlots
		}
	}
	ext, err := s.allocExtent(n)
	if err != nil {
		return 0, 0, err
	}
	s.index.set(key, pilafRef{slot: slot, ptr: ext.ptr, len: n, cap: ext.cap})
	if !overwrite {
		s.slotOwner.set(slot, true)
	}
	return s.meta.HashBase + memory.Addr(slot*pilafSlotSize), ext.ptr, nil
}

// tearDelay separates the CPU's partial memory writes during a PUT, so
// concurrent one-sided readers can observe torn state — the race Pilaf's
// self-verifying CRCs exist to catch (§6, [31]). Server CPU stores are
// not atomic at entry granularity on real hardware.
const tearDelay = 300 * time.Nanosecond

// put executes a PUT on the server CPU: allocate (or reuse) an extent,
// write the entry (non-atomically), update the slot (non-atomically).
// Lookups use the CPU's coherent index, never the staged memory.
func (s *PilafServer) put(key int64, value []byte) error {
	s.Puts++
	// Fresh images: the staged stores below may outlive this call.
	n := pilafEntrySize(len(value))
	img := pilafAppendEntry(make([]byte, 0, n+pilafSlotSize), key, value)
	s.host.Space().Guard().Lock()
	slotAddr, dst, err := s.install(key, n)
	s.host.Space().Guard().Unlock()
	if err != nil {
		return err
	}
	img = pilafAppendSlot(img, dst, n)
	// First half of the entry, second half, slot halves last: a remote
	// reader interleaving anywhere in between sees a torn entry or a torn
	// slot and must rely on the CRC to detect it.
	half := n / 2
	return s.host.StageWrites(s.meta.Key, tearDelay, []transport.StagedWrite{
		{Addr: dst, Data: img[:half]},
		{Addr: dst + memory.Addr(half), Data: img[half:n]},
		{Addr: slotAddr, Data: img[n : n+16]},
		{Addr: slotAddr + 16, Data: img[n+16:]},
	})
}

// handleRPC dispatches Pilaf PUTs.
func (s *PilafServer) handleRPC(payload []byte) ([]byte, time.Duration) {
	if len(payload) < 9 || payload[0] != rpcPilafPut {
		return []byte{1}, 0
	}
	key := int64(binary.BigEndian.Uint64(payload[1:9]))
	if err := s.put(key, payload[9:]); err != nil {
		return []byte{1}, 0
	}
	// CPU cost of the hash probe + extent copy beyond base dispatch.
	return []byte{0}, 500 * time.Nanosecond
}

// Load bulk-installs an object (server-side, pre-experiment). Nothing reads
// the store while it loads, so there is no race to stage: the entry and
// then the slot are stored whole, and the image is settled — ready for
// Capture — when Load returns, with no event scheduled.
func (s *PilafServer) Load(key int64, value []byte) error {
	space := s.host.Space()
	space.Guard().Lock()
	defer space.Guard().Unlock()
	n := pilafEntrySize(len(value))
	s.loadBuf = pilafAppendEntry(s.loadBuf[:0], key, value)
	slotAddr, dst, err := s.install(key, n)
	if err != nil {
		return err
	}
	s.loadBuf = pilafAppendSlot(s.loadBuf, dst, n)
	if err := space.Write(s.meta.Key, dst, s.loadBuf[:n]); err != nil {
		return err
	}
	return space.Write(s.meta.Key, slotAddr, s.loadBuf[n:])
}

// PilafTemplate is the CPU half of a loaded Pilaf server's image, the one
// store whose image is more than its host's memory plus its Meta: Pilaf
// keeps CPU-side state. The extent allocator each instance copies (its
// addresses are layout positions, valid in every fork, and a fork inherits
// the allocation pointer, so every instance registers the same next slab);
// the coherent index and slot ownership grow with the keyspace, so
// instances read them through (forkedIndex.fork) instead of copying.
type PilafTemplate struct {
	meta      PilafMeta
	extents   pilafExtents
	index     forkedIndex[pilafRef]
	slotOwner forkedIndex[bool]
}

// Capture returns the server's template, its host's memory captured beside
// it. Load leaves nothing staged, so a store only loaded is settled. The
// template takes over the server's index and free extents, so the server
// must not be used again.
func (s *PilafServer) Capture() *PilafTemplate {
	return &PilafTemplate{meta: s.meta, extents: s.extents, index: s.index, slotOwner: s.slotOwner}
}

// Attach instantiates the loaded Pilaf server on host, whose memory is a
// fork of the image captured beside t.
func (t *PilafTemplate) Attach(host transport.Host) *PilafServer {
	s := &PilafServer{host: host, meta: t.meta, extents: t.extents, index: t.index.fork(), slotOwner: t.slotOwner.fork()}
	s.extents.free = append([]pilafExtent(nil), t.extents.free...)
	host.SetRPCHandler(s.handleRPC)
	return s
}

// pilafCore is the Pilaf client protocol, written once against a
// transport.Issuer; PilafClient binds it to a simulation process.
type pilafCore struct {
	conn transport.Issuer
	meta PilafMeta
	// crcCost is the modeled client-side CRC validation time per GET.
	crcCost time.Duration

	// Retries counts CRC-failure GET retries (concurrent PUT races).
	Retries int64

	// payloadBuf is reusable PUT-RPC scratch: the client is closed-loop
	// and stale in-flight duplicates are dropped by the request epoch.
	payloadBuf []byte
}

// PilafClient runs the Pilaf protocol over one simulated connection that
// each call re-binds to the calling process.
type PilafClient struct {
	pilafCore
	pc rdma.ProcConn
}

// NewPilafClient wraps a connection to a Pilaf server.
func NewPilafClient(conn *rdma.Conn, meta PilafMeta, crcCost time.Duration) *PilafClient {
	c := &PilafClient{pc: rdma.ProcConn{Conn: conn}}
	c.pilafCore = pilafCore{conn: &c.pc, meta: meta, crcCost: crcCost}
	return c
}

// on binds the connection to the calling process for one call.
func (c *PilafClient) on(p *sim.Proc) *pilafCore {
	c.pc.Proc = p
	return &c.pilafCore
}

// Get and Put are the pilafCore operations issued from process p.
func (c *PilafClient) Get(p *sim.Proc, key int64) ([]byte, error) { return c.on(p).Get(key) }

func (c *PilafClient) Put(p *sim.Proc, key int64, value []byte) error { return c.on(p).Put(key, value) }

// read issues one READ of n bytes at addr and returns them.
func (c *pilafCore) read(addr memory.Addr, n uint64) ([]byte, error) {
	ops := c.conn.Ops(1)
	ops[0] = prism.Read(c.meta.Key, addr, n)
	res, err := c.conn.Issue(ops)
	if err != nil {
		return nil, err
	}
	if res[0].Status != wire.StatusOK {
		return nil, fmt.Errorf("kv: pilaf read %v", res[0].Status)
	}
	return res[0].Data, nil
}

// Get performs Pilaf's two-READ lookup with CRC validation.
func (c *pilafCore) Get(key int64) ([]byte, error) {
	const maxRetries = 1000 // torn-read retries before giving up
	idx := slotIndex(c.meta.Hash, key, c.meta.NSlots)
	for probes, retries := int64(0), 0; probes < c.meta.NSlots; {
		slot, err := c.read(c.meta.HashBase+memory.Addr(idx*pilafSlotSize), pilafSlotSize)
		if err != nil {
			return nil, err
		}
		inuse, ptr, length, ok := pilafDecodeSlot(slot)
		if ok && !inuse {
			return nil, ErrNotFound
		}
		var k int64
		var v []byte
		if ok {
			entry, err := c.read(ptr, length)
			if err != nil {
				return nil, err
			}
			c.conn.Sleep(c.crcCost) // client-side CRC validation (§6.2: ~2 µs)
			k, v, ok = pilafDecodeEntry(entry)
		}
		if !ok {
			// Torn slot or entry under a concurrent PUT: retry this probe.
			c.Retries++
			if retries++; retries > maxRetries {
				return nil, fmt.Errorf("kv: pilaf CRC never settled")
			}
			continue
		}
		if k == key {
			return v, nil
		}
		idx = (idx + 1) % c.meta.NSlots
		probes++
	}
	return nil, ErrNotFound
}

// Put sends the PUT RPC to the server CPU.
func (c *pilafCore) Put(key int64, value []byte) error {
	c.payloadBuf = append(binary.BigEndian.AppendUint64(append(c.payloadBuf[:0], rpcPilafPut), uint64(key)), value...)
	ops := c.conn.Ops(1)
	ops[0] = prism.Send(c.payloadBuf)
	res, err := c.conn.Issue(ops)
	if err == nil && (res[0].Status != wire.StatusOK || len(res[0].Data) != 1 || res[0].Data[0] != 0) {
		err = fmt.Errorf("kv: pilaf PUT failed")
	}
	return err
}
