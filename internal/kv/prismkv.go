package kv

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

// RPC opcodes (application-level protocols riding OpSend). 0 is
// transport.RPCMeta, which the transport answers for every store.
const (
	rpcFree     byte = 1
	rpcPilafPut byte = 2
	// rpcChainGet is the chain store's host-CPU GET (chain.go), the
	// baseline a verb-program CHASE is measured against.
	rpcChainGet byte = 5
)

// Options configures a PRISM-KV server.
type Options struct {
	NSlots   int64 // keys 0..NSlots-1, key k in slot k
	MaxValue int   // largest value size accepted
	// BuffersPerClass caps how many buffers each size class may carve
	// (alloc.FreeList registers them a slab at a time, as ALLOCATE needs
	// them). Must cover the live objects in that class plus in-flight
	// updates awaiting reclamation.
	BuffersPerClass int
}

// minClass is the smallest buffer class (bytes).
const minClass = 64

// DefaultOptions sizes a server for n objects of up to valueSize bytes.
func DefaultOptions(n int64, valueSize int) Options {
	return Options{
		NSlots:          n,
		MaxValue:        valueSize,
		BuffersPerClass: int(n) + 8192,
	}
}

// Server is a PRISM-KV server: a hash-table region, size-classed free
// lists, and a reclamation RPC handler. All remote GET/PUT work happens in
// the NIC data path; the host CPU only registers memory and recycles
// buffers.
type Server struct {
	// host is the transport the store is provisioned on: the simulated
	// NIC or a live socket server (transport.Server). It is the store's
	// only handle on its machine; whoever built the host connects clients
	// to it.
	host transport.Host
	meta Meta
	// retired is the rpcFree decode scratch; RPC dispatch is serialized
	// by the transport (one engine in the simulator, rpcMu live). loadBuf
	// is Load's entry image, touched only under the space guard.
	loadBuf []byte
	retired []memory.Addr
}

// NewServerOn provisions PRISM-KV on any transport host — the simulated
// NIC or a live socket server.
func NewServerOn(host transport.Host, opts Options) (*Server, error) {
	space := host.Space()
	key, base, err := alloc.RegisterArray(space, 0, uint64(opts.NSlots), slotSize)
	if err != nil {
		return nil, fmt.Errorf("kv: hash table registration: %w", err)
	}
	meta := Meta{
		Key:      key,
		HashBase: base,
		NSlots:   opts.NSlots,
		MaxValue: opts.MaxValue,
	}
	// Size classes: powers of two from minClass, topped by the largest
	// entry itself (DESIGN.md §13).
	for i, bufSize := range alloc.SizeClasses(minClass, max(entrySize(opts.MaxValue), minClass)) {
		id := uint32(i + 1)
		host.AddFreeList(alloc.NewFreeList(id, bufSize, key, space, opts.BuffersPerClass))
		meta.FreeLists = append(meta.FreeLists, FreeListInfo{ID: id, BufSize: bufSize})
	}
	host.SetConnTempKey(key)
	return AttachServer(host, meta), nil
}

// AttachServer is the CPU half of NewServerOn: the store described by
// meta already stands in host's memory and free lists (NewServerOn just
// put it there, or host was forked from a captured image of one that
// did), and what remains is the server's own state, its RPC handler and
// its published Meta.
func AttachServer(host transport.Host, meta Meta) *Server {
	s := &Server{host: host, meta: meta}
	host.SetRPCHandler(s.handleRPC)
	host.PublishMeta("kv", &s.meta)
	return s
}

// Meta returns the client control-plane description.
func (s *Server) Meta() Meta { return s.meta }

// handleRPC serves the reclamation daemon (§3.2): clients report retired
// buffers; the server re-registers them with the NIC free list after
// quiesce. A batch naming a free list the store does not have is refused
// whole with Pilaf's failure reply, [1], and recycles nothing.
func (s *Server) handleRPC(payload []byte) ([]byte, time.Duration) {
	if len(payload) == 0 || payload[0] != rpcFree {
		return nil, 0
	}
	// [op(1)] then repeated [freelist(4) | addr(8)]; each run of one free
	// list is recycled in one call.
	rest := payload[1:]
	n := len(rest) / 12
	for r := rest; len(r) >= 12; r = r[12:] {
		if !s.meta.hasFreeList(binary.LittleEndian.Uint32(r)) {
			return []byte{1}, 0
		}
	}
	for len(rest) >= 12 {
		fl := binary.LittleEndian.Uint32(rest)
		s.retired = s.retired[:0]
		for ; len(rest) >= 12 && binary.LittleEndian.Uint32(rest) == fl; rest = rest[12:] {
			s.retired = append(s.retired, memory.Addr(binary.LittleEndian.Uint64(rest[4:])))
		}
		s.host.RecycleBuffers(fl, s.retired)
	}
	// Recycling is cheap bookkeeping; charge ~100ns per buffer.
	return []byte{0}, time.Duration(n) * 100 * time.Nanosecond
}

// Load installs key=value server-side (bulk loading before an experiment,
// as the paper does). It consumes a free-list buffer like a remote PUT
// would.
func (s *Server) Load(key int64, value []byte) error {
	idx, err := slotIndex(key, s.meta.NSlots)
	if err != nil {
		return err
	}
	flID, err := s.meta.classFor(entrySize(len(value)))
	if err != nil {
		return err
	}
	// Hold the space guard across the whole load so bulk loading is safe
	// while a live transport is already serving connections (uncontended —
	// and free — in the single-threaded simulator).
	space := s.host.Space()
	space.Guard().Lock()
	defer space.Guard().Unlock()
	buf, err := s.host.FreeList(flID).Pop()
	if err != nil {
		return fmt.Errorf("kv: load out of buffers: %w", err)
	}
	s.loadBuf = appendEntry(s.loadBuf[:0], key, value)
	if err := space.Write(s.meta.Key, buf, s.loadBuf); err != nil {
		return err
	}
	var img [slotSize]byte
	prism.PutBE64(img[:], 0, 1) // initial tag
	prism.PutLE64(img[:], 8, uint64(buf))
	prism.PutLE64(img[:], 16, uint64(len(s.loadBuf)))
	return space.Write(s.meta.Key, s.meta.slotAddr(idx), img[:])
}

// Cached CAS masks for the 24-byte slot layout: compare on the tag
// field, swap the whole slot. Read-only after init, shared by every
// client and server.
var (
	slotTagMask  = prism.FieldMask(slotSize, 0, 8)
	slotFullMask = prism.FullMask(slotSize)
)

// Client is a PRISM-KV client — slot reads, tags, the out-of-place
// update chain, RNR backoff, reclamation batching and the SCAN program
// (chain.go) — written once against a transport.Issuer: the same
// type over a simulated connection and a live socket. Each closed-loop
// client owns one. Single-owner, like the connection under it: issues are
// strictly sequential, which is what makes the per-client scratch below
// safe to reuse (the previous response arrived before it is rewritten,
// and a still-in-flight duplicate of an old simulated request is dropped
// by its stale epoch).
type Client struct {
	conn     transport.Issuer
	meta     Meta
	clientID uint16
	tagClock uint64

	// SlotCache, when enabled, remembers the keys whose slot a PUT has
	// read (and caches the pessimal first PUT round trip away) for
	// read-modify-write loops — the ablation the paper's §6.2
	// parenthetical describes.
	SlotCache   bool
	cachedSlots map[int64]bool

	// Reclaim batches the buffers this client's updates displaced as
	// 12-byte [freelist(4) | addr(8)] records and reports them under
	// rpcFree (§3.2); a batch is flushed by the retire that fills it.
	// Reclaim.Ctrl routes the reports over a control connection.
	Reclaim transport.Reclaimer

	// Stats. Probes is always 0 (key k has one slot); the repository's
	// benchmark still reads it.
	Probes  int64
	CASFail int64 // PUT chains that lost a tag race

	// PUT/DELETE images.
	entryBuf []byte
	preBuf   [slotSize]byte
	ptrBuf   [8]byte

	// progBuf is the encoded SCAN program (chain.go).
	progBuf []byte

	// GetBatch scratch, reused across batches; the first GetBatch makes
	// batchFan, so a client that never batches has none.
	batchOps []wire.Op
	batchFan *transport.Fanout
}

// NewClient builds a client over a connection to a PRISM-KV server. A
// control connection is set as Reclaim.Ctrl.
func NewClient(conn transport.Issuer, meta Meta, clientID uint16) *Client {
	return &Client{conn: conn, meta: meta, clientID: clientID, Reclaim: transport.NewReclaimer(conn, rpcFree, 16)}
}

// FetchMeta, LiveClient and NewLiveClient are the names the repository's
// benchmark still uses for transport.FetchMeta with app "kv", Client and
// NewClient over a live connection.
func FetchMeta(conn transport.Issuer) (m Meta, err error) {
	err = transport.FetchMeta(conn, "kv", &m)
	return m, err
}

type LiveClient = Client

func NewLiveClient(conn *transport.Conn, meta Meta, clientID uint16) *Client {
	return NewClient(conn, meta, clientID)
}

// Meta returns the store description the client was built with.
func (c *Client) Meta() Meta { return c.meta }

// nextTag returns a fresh tag greater than any tag this client has seen or
// produced: (logical clock << 16) | clientID, matching the paper's
// loosely-synchronized tag scheme.
func (c *Client) nextTag(atLeast uint64) uint64 {
	clock := c.tagClock + 1
	if floor := atLeast >> 16; floor >= clock {
		clock = floor + 1
	}
	c.tagClock = clock
	return clock<<16 | uint64(c.clientID)
}

// Get performs the §6.1 read: one indirect bounded READ of key's slot.
func (c *Client) Get(key int64) ([]byte, error) {
	idx, err := slotIndex(key, c.meta.NSlots)
	if err != nil {
		return nil, err
	}
	ops := c.conn.Ops(1)
	ops[0] = c.slotRead(idx)
	res, err := c.conn.Issue(ops)
	if err != nil {
		return nil, err
	}
	return matchSlot(res[0], key)
}

// slotRead is the indirect bounded READ of slot idx's entry.
func (c *Client) slotRead(idx int64) wire.Op {
	return prism.ReadBounded(c.meta.Key, c.meta.slotAddr(idx)+8, entrySize(c.meta.MaxValue))
}

// matchSlot interprets the indirect bounded READ of key's slot.
func matchSlot(r wire.Result, key int64) ([]byte, error) {
	if r.Status == wire.StatusNAKAccess {
		return nil, ErrNotFound // null pointer: the slot is empty
	}
	if r.Status != wire.StatusOK {
		return nil, fmt.Errorf("kv: GET status %v", r.Status)
	}
	k, v, err := decodeEntry(r.Data)
	if err != nil {
		return nil, err
	}
	if k != key {
		return nil, fmt.Errorf("kv: slot %d holds key %d", key, k)
	}
	return v, nil
}

// GetBatch performs the §6.1 read for every key behind one doorbell: the
// GET chains are one round of a fan-out on the connection, so on a live
// socket the whole train is staged and the writer rung once, and n lookups
// cost one write syscall instead of n; on the simulator the chains
// pipeline through the send window. visit is called exactly once per key,
// in key order; a key outside the table is visited with ErrKeyRange and
// posts nothing. val aliases transport-owned storage and is valid only
// during the visit call — copy to keep.
func (c *Client) GetBatch(keys []int64, visit func(i int, val []byte, err error)) error {
	if len(keys) == 0 {
		return nil
	}
	if cap(c.batchOps) < len(keys) {
		c.batchOps = make([]wire.Op, len(keys))
	}
	if c.batchFan == nil {
		c.batchFan = transport.NewFanout([]transport.Issuer{c.conn})
	}
	for i, key := range keys {
		if idx, err := slotIndex(key, c.meta.NSlots); err == nil {
			c.batchOps[i] = c.slotRead(idx)
			c.batchFan.Post(0, c.batchOps[i:i+1])
		}
	}
	res, err := c.batchFan.Wait() // no round at all when nothing was posted
	if err != nil {
		return err
	}
	for i, key := range keys {
		if _, err := slotIndex(key, c.meta.NSlots); err != nil {
			visit(i, nil, err)
			continue
		}
		v, err := matchSlot(res[0][0], key)
		res = res[1:]
		visit(i, v, err)
	}
	return nil
}

// Put performs the §6.1 out-of-place update: a round trip reading key's
// slot to learn the current tag, then one chained round trip that
// writes the new tag/bound to the connection's temp buffer, ALLOCATEs the
// new object (redirecting its address into the temp buffer), and installs
// the <tag,ptr,bound> triple with an enhanced CAS. No server CPU runs.
func (c *Client) Put(key int64, value []byte) error {
	if len(value) > c.meta.MaxValue {
		return ErrTooLarge
	}
	entry := c.encodeEntryScratch(key, value)
	flID, err := c.meta.classFor(uint64(len(entry)))
	if err != nil {
		return err
	}

	rnrRetries := 0
	for {
		idx, curTag, err := c.findSlot(key)
		if err != nil {
			return err
		}
		slot := c.meta.slotAddr(idx)
		tag := c.nextTag(curTag)

		// tmp layout mirrors the slot: [tag | ptr(redirected) | bound].
		tmp, tmpKey := c.conn.Temp()
		pre := c.preBuf[:]
		prism.PutBE64(pre, 0, tag)
		prism.PutLE64(pre, 8, 0)
		prism.PutLE64(pre, 16, uint64(len(entry)))
		ops := c.conn.Ops(3)
		ops[0] = prism.Write(tmpKey, tmp, pre)
		ops[1] = prism.Conditional(prism.RedirectTo(prism.Allocate(flID, entry), tmpKey, tmp+8))
		ops[2] = prism.Conditional(prism.CASIndirectDataBuf(&c.ptrBuf, c.meta.Key, slot, wire.CASGt, tmp,
			slotTagMask, slotFullMask))
		res, err := c.conn.Issue(ops)
		if err != nil {
			return err
		}
		if res[1].Status == wire.StatusRNR {
			// Free list transiently empty: push our pending reclamations
			// to the server immediately and retry after a short backoff
			// while the daemon reposts buffers.
			if rnrRetries++; rnrRetries > 100 {
				return fmt.Errorf("kv: free list %d exhausted", flID)
			}
			if err := c.FlushFrees(); err != nil {
				return err
			}
			c.conn.Sleep(time.Duration(rnrRetries) * 10 * time.Microsecond)
			continue
		}
		if res[0].Status != wire.StatusOK || res[1].Status != wire.StatusOK {
			return fmt.Errorf("kv: PUT chain statuses %v %v %v", res[0].Status, res[1].Status, res[2].Status)
		}
		switch res[2].Status {
		case wire.StatusOK:
			// Installed: retire the previous buffer (if any).
			return c.retireOld(res[2].Data)
		case wire.StatusCASFailed:
			// A concurrent PUT installed a newer tag first: last-writer-
			// wins says our value is superseded. Retire our orphaned
			// buffer and report success (the paper's PRISM-KV treats the
			// overwrite race the same way).
			c.CASFail++
			return c.retire(flID, res[1].Addr)
		default:
			return fmt.Errorf("kv: PUT CAS status %v", res[2].Status)
		}
	}
}

// Delete removes a key by swinging its slot to the null pointer with a
// fresh tag (an empty slot simply has ptr == 0).
func (c *Client) Delete(key int64) error {
	idx, curTag, err := c.findSlot(key)
	if err != nil {
		return err
	}
	slot := c.meta.slotAddr(idx)
	tag := c.nextTag(curTag)
	data := c.preBuf[:]
	prism.PutBE64(data, 0, tag)
	prism.PutLE64(data, 8, 0)
	prism.PutLE64(data, 16, 0)
	ops := c.conn.Ops(1)
	ops[0] = prism.CAS(c.meta.Key, slot, wire.CASGt, data, slotTagMask, slotFullMask)
	res, err := c.conn.Issue(ops)
	if err != nil {
		return err
	}
	switch res[0].Status {
	case wire.StatusOK:
		return c.retireOld(res[0].Data)
	case wire.StatusCASFailed:
		return nil // a newer write superseded the delete
	default:
		return fmt.Errorf("kv: DELETE status %v", res[0].Status)
	}
}

// findSlot returns key's slot and its current tag, consulting and feeding
// the slot cache when enabled.
func (c *Client) findSlot(key int64) (int64, uint64, error) {
	idx, err := slotIndex(key, c.meta.NSlots)
	if err != nil {
		return 0, 0, err
	}
	if c.SlotCache && c.cachedSlots[key] {
		return idx, c.tagClock << 16, nil
	}
	tag, err := c.readSlot(idx, key)
	if err == nil && c.SlotCache {
		if c.cachedSlots == nil {
			c.cachedSlots = make(map[int64]bool)
		}
		c.cachedSlots[key] = true
	}
	return idx, tag, err
}

// readSlot learns slot idx's current tag in one round trip: a chain of a
// direct slot READ and an indirect bounded READ of its object, whose key
// the client checks.
func (c *Client) readSlot(idx, key int64) (uint64, error) {
	ops := c.conn.Ops(2)
	ops[0] = prism.Read(c.meta.Key, c.meta.slotAddr(idx), slotSize)
	ops[1] = c.slotRead(idx)
	res, err := c.conn.Issue(ops)
	if err != nil {
		return 0, err
	}
	if res[0].Status != wire.StatusOK {
		return 0, fmt.Errorf("kv: slot read status %v", res[0].Status)
	}
	if _, err := matchSlot(res[1], key); err != nil && err != ErrNotFound {
		return 0, err
	}
	return prism.BE64(res[0].Data, 0), nil
}

// retireOld retires the buffer a successful slot CAS displaced, named by
// the <ptr,bound> of the returned old slot image (none if ptr is null).
func (c *Client) retireOld(oldSlot []byte) error {
	oldPtr := prism.LE64(oldSlot, 8)
	if oldPtr == 0 {
		return nil
	}
	oldClass, err := c.meta.classFor(prism.LE64(oldSlot, 16))
	if err != nil {
		return nil // a bound no class covers names no buffer of ours
	}
	return c.retire(oldClass, memory.Addr(oldPtr))
}

// retire queues a buffer for reclamation and flushes the batch it fills
// (§3.2's client-driven scheme).
func (c *Client) retire(freeList uint32, addr memory.Addr) error {
	var rec [12]byte
	binary.LittleEndian.PutUint32(rec[:4], freeList)
	binary.LittleEndian.PutUint64(rec[4:], uint64(addr))
	c.Reclaim.Retire(rec[:])
	if c.Reclaim.Full() {
		return c.Reclaim.Flush()
	}
	return nil
}

// FlushFrees sends the accumulated reclamation batch without waiting for
// the acknowledgment (asynchronous, per §6.1).
func (c *Client) FlushFrees() error { return c.Reclaim.Flush() }

// encodeEntryScratch builds the object buffer image for key=value in the
// client's reusable scratch.
func (c *Client) encodeEntryScratch(key int64, value []byte) []byte {
	if need := int(entrySize(len(value))); cap(c.entryBuf) < need {
		c.entryBuf = make([]byte, 0, need) // one exact allocation, not append's growth steps
	}
	c.entryBuf = appendEntry(c.entryBuf[:0], key, value)
	return c.entryBuf
}
