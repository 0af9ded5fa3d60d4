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
// modeled time (PilafClient.crcCost), so the choice moves no simulated
// nanosecond.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pilafCRC is the self-verifying check of b. b must already be on the
// heap: crc32's assembly makes every argument escape, so a stack array
// passed here would be allocated afresh on every call.
func pilafCRC(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(b))
}

const pilafSlotSize = 32

// PilafServer owns the hash table and extents and serves PUT RPCs. It is
// the one store that holds the simulated NIC rather than a transport.Host:
// its PUT stages torn stores on the NIC's engine.
type PilafServer struct {
	rs   *rdma.Server
	meta PilafMeta

	space   *memory.Space
	extents pilafExtents

	// index and slotOwner are the server CPU's coherent view of the hash
	// table. The CPU's stores to simulated memory are staged (so remote
	// one-sided readers can observe torn state, which Pilaf's CRCs catch),
	// but a CPU always sees its own stores via store forwarding — so
	// server-side lookups must come from here, never from re-reading the
	// (possibly still-staged) simulated memory.
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

// NewPilafServer provisions Pilaf on the given NIC. The object store may
// grow to opts.BuffersPerClass entries of opts.MaxValue bytes — sized like
// PRISM-KV's buffer pool: one entry per slot plus slack for
// in-place-replacement churn.
func NewPilafServer(rs *rdma.Server, opts Options) (*PilafServer, error) {
	space := rs.Space()
	key, base, err := alloc.RegisterArray(space, 0, uint64(opts.NSlots), pilafSlotSize)
	if err != nil {
		return nil, fmt.Errorf("kv: pilaf hash table: %w", err)
	}
	s := &PilafServer{
		rs:        rs,
		space:     space,
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
	rs.SetRPCHandler(s.handleRPC)
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
		r, err := s.space.RegisterShared(s.meta.Key, uint64(count)*entryBytes)
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
// coherent index. The caller stores the entry at dst and the slot image at
// slotAddr.
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
		idx := slotIndex(s.meta.Hash, key, s.meta.NSlots)
		found := false
		for probes := int64(0); probes < s.meta.NSlots; probes++ {
			if _, taken := s.slotOwner.get(idx); !taken {
				found = true
				break
			}
			idx = (idx + 1) % s.meta.NSlots
		}
		if !found {
			return 0, 0, fmt.Errorf("kv: pilaf hash table full")
		}
		slot = idx
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
// Lookups use the CPU's coherent index, never the staged simulated memory.
func (s *PilafServer) put(key int64, value []byte) error {
	s.Puts++
	// Fresh images: the staged stores below outlive this call.
	n := pilafEntrySize(len(value))
	img := pilafAppendEntry(make([]byte, 0, n+pilafSlotSize), key, value)
	slotAddr, dst, err := s.install(key, n)
	if err != nil {
		return err
	}
	img = pilafAppendSlot(img, dst, n)
	entry, slotImg := img[:n], img[n:]

	// Stage the stores to simulated memory: first half of the entry now,
	// second half a beat later, slot halves last — a remote reader
	// interleaving anywhere in between sees a torn entry or a torn slot
	// and must rely on the CRC to detect it.
	half := len(entry) / 2
	if err := s.space.Write(s.meta.Key, dst, entry[:half]); err != nil {
		return err
	}
	e := s.rs.Engine()
	e.Schedule(tearDelay, func() {
		if err := s.space.Write(s.meta.Key, dst+memory.Addr(half), entry[half:]); err != nil {
			panic(err)
		}
	})
	e.Schedule(2*tearDelay, func() {
		if err := s.space.Write(s.meta.Key, slotAddr, slotImg[:16]); err != nil {
			panic(err)
		}
	})
	e.Schedule(3*tearDelay, func() {
		if err := s.space.Write(s.meta.Key, slotAddr+16, slotImg[16:]); err != nil {
			panic(err)
		}
	})
	return nil
}

// handleRPC dispatches Pilaf PUTs.
func (s *PilafServer) handleRPC(payload []byte) ([]byte, time.Duration) {
	if len(payload) < 9 || payload[0] != rpcPilafPut {
		return []byte{1}, 0
	}
	key := int64(binary.BigEndian.Uint64(payload[1:9]))
	value := payload[9:]
	if err := s.put(key, value); err != nil {
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
	n := pilafEntrySize(len(value))
	s.loadBuf = pilafAppendEntry(s.loadBuf[:0], key, value)
	slotAddr, dst, err := s.install(key, n)
	if err != nil {
		return err
	}
	s.loadBuf = pilafAppendSlot(s.loadBuf, dst, n)
	if err := s.space.Write(s.meta.Key, dst, s.loadBuf[:n]); err != nil {
		return err
	}
	return s.space.Write(s.meta.Key, slotAddr, s.loadBuf[n:])
}

// PilafTemplate is an immutable image of a loaded Pilaf server, the one
// store whose image is more than rdma.ServerTemplate plus its Meta: Pilaf
// keeps CPU-side state. The extent allocator each instance copies (its
// addresses are layout positions, valid in every fork, and a fork inherits
// the allocation pointer, so every instance registers the same next slab);
// the coherent index and slot ownership grow with the keyspace, so
// instances read them through (forkedIndex.fork) instead of copying.
type PilafTemplate struct {
	nic       *rdma.ServerTemplate
	meta      PilafMeta
	extents   pilafExtents
	index     forkedIndex[pilafRef]
	slotOwner forkedIndex[bool]
}

// Capture seals the server and returns its template. The server must have
// no connections, so all it holds was put there by Load, which leaves
// nothing staged: the image is settled. The template keeps the server's
// own index and free-extent list; the server must not be used again.
func (s *PilafServer) Capture() *PilafTemplate {
	return &PilafTemplate{
		nic:       s.rs.Capture(),
		meta:      s.meta,
		extents:   s.extents,
		index:     s.index,
		slotOwner: s.slotOwner,
	}
}

// NIC exposes the transport-level template, which a new instance's NIC is
// forked from (rdma.NewServerFromTemplate).
func (t *PilafTemplate) NIC() *rdma.ServerTemplate { return t.nic }

// Attach instantiates the loaded Pilaf server on rs, a NIC forked from
// t.NIC().
func (t *PilafTemplate) Attach(rs *rdma.Server) *PilafServer {
	s := &PilafServer{
		rs:        rs,
		space:     rs.Space(),
		extents:   t.extents,
		index:     t.index.fork(),
		slotOwner: t.slotOwner.fork(),
		meta:      t.meta,
	}
	s.extents.free = append([]pilafExtent(nil), t.extents.free...)
	rs.SetRPCHandler(s.handleRPC)
	return s
}

// PilafClient runs the Pilaf protocol over one connection.
type PilafClient struct {
	conn *rdma.Conn
	meta PilafMeta
	// crcCost is the modeled client-side CRC validation time per GET.
	crcCost time.Duration

	// Retries counts CRC-failure GET retries (concurrent PUT races).
	Retries int64

	// payloadBuf is reusable PUT-RPC scratch: the client is closed-loop
	// and stale in-flight duplicates are dropped by the request epoch.
	payloadBuf []byte
}

// NewPilafClient wraps a connection to a Pilaf server.
func NewPilafClient(conn *rdma.Conn, meta PilafMeta, crcCost time.Duration) *PilafClient {
	return &PilafClient{conn: conn, meta: meta, crcCost: crcCost}
}

// Get performs Pilaf's two-READ lookup with CRC validation.
func (c *PilafClient) Get(p *sim.Proc, key int64) ([]byte, error) {
	const maxRetries = 1000 // torn-read retries before giving up
	idx := slotIndex(c.meta.Hash, key, c.meta.NSlots)
	retries := 0
	for probes := int64(0); probes < c.meta.NSlots; probes++ {
		slotAddr := c.meta.HashBase + memory.Addr(idx*pilafSlotSize)
		ops := c.conn.Ops(1)
		ops[0] = prism.Read(c.meta.Key, slotAddr, pilafSlotSize)
		res := c.conn.Issue(p, ops...)
		if res[0].Status != wire.StatusOK {
			return nil, fmt.Errorf("kv: pilaf slot read %v", res[0].Status)
		}
		inuse, ptr, length, ok := pilafDecodeSlot(res[0].Data)
		if !ok {
			// Torn slot under a concurrent PUT: retry this probe.
			c.Retries++
			if retries++; retries > maxRetries {
				return nil, fmt.Errorf("kv: pilaf slot CRC never settled")
			}
			probes--
			continue
		}
		if !inuse {
			return nil, ErrNotFound
		}
		ops = c.conn.Ops(1)
		ops[0] = prism.Read(c.meta.Key, ptr, length)
		res = c.conn.Issue(p, ops...)
		if res[0].Status != wire.StatusOK {
			return nil, fmt.Errorf("kv: pilaf entry read %v", res[0].Status)
		}
		p.Sleep(c.crcCost) // client-side CRC validation (§6.2: ~2 µs)
		k, v, ok := pilafDecodeEntry(res[0].Data)
		if !ok {
			c.Retries++
			if retries++; retries > maxRetries {
				return nil, fmt.Errorf("kv: pilaf entry CRC never settled")
			}
			probes--
			continue
		}
		if k == key {
			return v, nil
		}
		idx = (idx + 1) % c.meta.NSlots
	}
	return nil, ErrNotFound
}

// Put sends the PUT RPC to the server CPU.
func (c *PilafClient) Put(p *sim.Proc, key int64, value []byte) error {
	if cap(c.payloadBuf) < 9+len(value) {
		c.payloadBuf = make([]byte, 9+len(value))
	}
	payload := c.payloadBuf[:9+len(value)]
	payload[0] = rpcPilafPut
	binary.BigEndian.PutUint64(payload[1:9], uint64(key))
	copy(payload[9:], value)
	ops := c.conn.Ops(1)
	ops[0] = prism.Send(payload)
	res := c.conn.Issue(p, ops...)
	if res[0].Status != wire.StatusOK || len(res[0].Data) != 1 || res[0].Data[0] != 0 {
		return fmt.Errorf("kv: pilaf PUT failed")
	}
	return nil
}
