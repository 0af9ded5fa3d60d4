package kv

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

// Pilaf [31] stores a hash table of pointers into extents, one a key. GETs
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

// pilafFreeList is the id of the free list Pilaf's extents come from, the
// one list on its host.
const pilafFreeList uint32 = 1

// PilafServer serves PUT RPCs on a transport host, whose StageWrites
// tears its PUT's stores. The store itself is memory: the hash table and
// the extents of one free list of largest-size entries.
type PilafServer struct {
	host transport.Host
	meta PilafMeta

	// extents is the host's free list of entry buffers. A key keeps the
	// extent its first store popped: a PUT rewrites it in place, and Pilaf
	// never deletes a key, so nothing is ever posted back.
	extents *alloc.FreeList

	// Puts counts RPC PUTs executed by the server CPU.
	Puts int64
}

// PilafMeta is the client control-plane description.
type PilafMeta struct {
	Key      memory.RKey
	HashBase memory.Addr
	NSlots   int64 // keys 0..NSlots-1, key k in slot k
	MaxValue int
}

// NewPilafServer provisions Pilaf on any transport host — the simulated
// NIC or a live socket server. The object store may grow to
// opts.BuffersPerClass entries of opts.MaxValue bytes — sized like
// PRISM-KV's buffer pool: one entry per slot plus slack.
func NewPilafServer(host transport.Host, opts Options) (*PilafServer, error) {
	space := host.Space()
	key, base, err := alloc.RegisterArray(space, 0, uint64(opts.NSlots), pilafSlotSize)
	if err != nil {
		return nil, fmt.Errorf("kv: pilaf hash table: %w", err)
	}
	host.AddFreeList(alloc.NewFreeList(pilafFreeList, pilafEntrySize(opts.MaxValue), key, space, opts.BuffersPerClass))
	return AttachPilafServer(host, PilafMeta{
		Key:      key,
		HashBase: base,
		NSlots:   opts.NSlots,
		MaxValue: opts.MaxValue,
	}), nil
}

// AttachPilafServer is the CPU half of NewPilafServer: the hash table and
// extents described by meta already stand in host's memory and free list
// (NewPilafServer just put them there, or host was forked from a captured
// image of a server that did), and what remains is the PUT RPC handler
// and the published Meta.
func AttachPilafServer(host transport.Host, meta PilafMeta) *PilafServer {
	s := &PilafServer{host: host, meta: meta, extents: host.FreeList(pilafFreeList)}
	host.SetRPCHandler(s.handleRPC)
	host.PublishMeta("pilaf", &s.meta)
	return s
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

// extent is the server CPU's half of storing key's n-byte entry: it
// returns key's slot, as its address and a writable view, and the extent
// the entry goes to, the one the slot names. A key's first store pops a
// fresh extent and claims the slot for it at once — the in-use word and
// pointer stored whole, ahead of the tear-delayed stores that follow — so
// a racing PUT of the key finds the claim. The caller holds the space
// guard, or loads before the host serves. A key from outside the table
// (an RPC's) or an entry over the largest is refused before anything
// changes.
func (s *PilafServer) extent(key int64, n uint64) (slotAddr memory.Addr, slot []byte, dst memory.Addr, err error) {
	idx, err := slotIndex(key, s.meta.NSlots)
	if err != nil {
		return 0, nil, 0, err
	}
	if n > s.extents.BufSize {
		return 0, nil, 0, fmt.Errorf("kv: pilaf value exceeds MaxValue %d", s.meta.MaxValue)
	}
	slotAddr = s.meta.HashBase + memory.Addr(idx*pilafSlotSize)
	if slot, err = s.host.Space().WriteView(s.meta.Key, slotAddr, pilafSlotSize); err != nil {
		return 0, nil, 0, err
	}
	if binary.LittleEndian.Uint64(slot) == 1 {
		return slotAddr, slot, memory.Addr(binary.LittleEndian.Uint64(slot[8:])), nil
	}
	if dst, err = s.extents.Pop(); err != nil {
		return 0, nil, 0, fmt.Errorf("kv: pilaf extents: %w", err)
	}
	binary.LittleEndian.PutUint64(slot, 1)
	binary.LittleEndian.PutUint64(slot[8:], uint64(dst))
	return slotAddr, slot, dst, nil
}

// tearDelay separates the CPU's partial memory writes during a PUT, so
// concurrent one-sided readers can observe torn state — the race Pilaf's
// self-verifying CRCs exist to catch (§6, [31]). Server CPU stores are
// not atomic at entry granularity on real hardware.
const tearDelay = 300 * time.Nanosecond

// put executes a PUT on the server CPU: find (or claim) the key's extent,
// rewrite the entry in place (non-atomically), update the slot
// (non-atomically).
func (s *PilafServer) put(key int64, value []byte) error {
	s.Puts++
	// Fresh images: the staged stores below may outlive this call.
	n := pilafEntrySize(len(value))
	img := pilafAppendEntry(make([]byte, 0, n+pilafSlotSize), key, value)
	s.host.Space().Guard().Lock()
	slotAddr, _, dst, err := s.extent(key, n)
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
	// CPU cost of the slot lookup + extent copy beyond base dispatch.
	return []byte{0}, 500 * time.Nanosecond
}

// Load bulk-installs an object (server-side, pre-experiment). Like every
// loader it runs before its host serves (transport.Host): it takes no
// guard, and with no reader to race there is nothing to stage. The entry,
// then the slot in the view extent claimed it through, are encoded whole
// where they live.
func (s *PilafServer) Load(key int64, value []byte) error {
	n := pilafEntrySize(len(value))
	_, slot, dst, err := s.extent(key, n)
	if err != nil {
		return err
	}
	entry, err := s.host.Space().WriteView(s.meta.Key, dst, n)
	if err != nil {
		return err
	}
	pilafAppendEntry(entry[:0], key, value)
	pilafAppendSlot(slot[:0], dst, n)
	return nil
}

// PilafClient is a Pilaf client, written once against a transport.Issuer.
type PilafClient struct {
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

// NewPilafClient builds a client over a connection to a Pilaf server.
// crcCost models the client-side CRC validation time per GET.
func NewPilafClient(conn transport.Issuer, meta PilafMeta, crcCost time.Duration) *PilafClient {
	return &PilafClient{conn: conn, meta: meta, crcCost: crcCost}
}

// read issues one READ of n bytes at addr and returns them.
func (c *PilafClient) read(addr memory.Addr, n uint64) ([]byte, error) {
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

// Get performs Pilaf's two-READ lookup of key's slot with CRC validation.
func (c *PilafClient) Get(key int64) ([]byte, error) {
	const maxRetries = 1000 // torn-read retries before giving up
	idx, err := slotIndex(key, c.meta.NSlots)
	if err != nil {
		return nil, err
	}
	for retries := 0; ; {
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
		if ok && k != key {
			return nil, fmt.Errorf("kv: pilaf slot %d holds key %d", idx, k)
		} else if ok {
			return v, nil
		}
		// Torn slot or entry under a concurrent PUT: read again.
		c.Retries++
		if retries++; retries > maxRetries {
			return nil, fmt.Errorf("kv: pilaf CRC never settled")
		}
	}
}

// Put sends the PUT RPC to the server CPU.
func (c *PilafClient) Put(key int64, value []byte) error {
	c.payloadBuf = append(binary.BigEndian.AppendUint64(append(c.payloadBuf[:0], rpcPilafPut), uint64(key)), value...)
	ops := c.conn.Ops(1)
	ops[0] = prism.Send(c.payloadBuf)
	res, err := c.conn.Issue(ops)
	if err == nil && (res[0].Status != wire.StatusOK || len(res[0].Data) != 1 || res[0].Data[0] != 0) {
		err = fmt.Errorf("kv: pilaf PUT failed")
	}
	return err
}
