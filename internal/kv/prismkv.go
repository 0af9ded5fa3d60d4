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
	NSlots   int64
	MaxValue int  // largest value size accepted
	Hash     Hash // slot mapping
	// BuffersPerClass caps how many buffers each size class may carve
	// (alloc.FreeList registers them a slab at a time, as ALLOCATE needs
	// them). Must cover the live objects in that class plus in-flight
	// updates awaiting reclamation.
	BuffersPerClass int
	// MinClass is the smallest buffer class (bytes).
	MinClass uint64
}

// DefaultOptions sizes a server for n objects of up to valueSize bytes.
func DefaultOptions(n int64, valueSize int) Options {
	return Options{
		NSlots:          n,
		MaxValue:        valueSize,
		Hash:            Collisionless,
		BuffersPerClass: int(n) + 8192,
		MinClass:        64,
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
		Hash:     opts.Hash,
		MaxValue: opts.MaxValue,
	}
	// Size classes: powers of two from MinClass, topped by the largest
	// entry itself (DESIGN.md §13).
	maxEntry := entrySize(opts.MaxValue)
	if maxEntry < opts.MinClass {
		maxEntry = opts.MinClass
	}
	for i, bufSize := range alloc.SizeClasses(opts.MinClass, maxEntry) {
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
// quiesce.
func (s *Server) handleRPC(payload []byte) ([]byte, time.Duration) {
	if len(payload) == 0 || payload[0] != rpcFree {
		return nil, 0
	}
	// [op(1)] then repeated [freelist(4) | addr(8)]; each run of one free
	// list is recycled in one call.
	rest := payload[1:]
	n := len(rest) / 12
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
	slot, err := s.loadSlot(space, key)
	if err != nil {
		return err
	}
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
	return space.Write(s.meta.Key, slot, img[:])
}

// loadSlot returns the slot Load installs key in: the first of its
// candidates (both of a two-choice table, the whole probe sequence
// otherwise) that is free or already holds key. The peeked bytes are
// parsed on the spot, never retained.
func (s *Server) loadSlot(space *memory.Space, key int64) (memory.Addr, error) {
	idx, cands := slotIndex(s.meta.Hash, key, s.meta.NSlots), s.meta.NSlots
	if s.meta.Hash == TwoChoice {
		cands = 2
	}
	for ; cands > 0; cands-- {
		addr := s.meta.slotAddr(idx)
		slot, err := space.Peek(s.meta.Key, addr, slotSize)
		if err != nil {
			return 0, err
		}
		ptr := prism.LE64(slot, 8)
		if ptr == 0 {
			return addr, nil
		}
		existing, err := space.Peek(s.meta.Key, memory.Addr(ptr), entryHeader+8)
		if err != nil {
			return 0, err
		}
		if k, _, err := decodeEntry(existing); err == nil && k == key {
			return addr, nil
		}
		idx = (idx + 1) % s.meta.NSlots
		if s.meta.Hash == TwoChoice {
			idx = slotIndex2(key, s.meta.NSlots)
		}
	}
	return 0, fmt.Errorf("kv: no candidate slot free loading key %d", key)
}

// Cached CAS masks for the 24-byte slot layout: compare on the tag
// field, swap the whole slot. Read-only after init, shared by every
// client and server.
var (
	slotTagMask  = prism.FieldMask(slotSize, 0, 8)
	slotFullMask = prism.FullMask(slotSize)
)

// Client is a PRISM-KV client — slot probing, tags, the out-of-place
// update chain, RNR backoff, reclamation batching and the CHASE/SCAN
// programs (chain.go) — written once against a transport.Issuer: the same
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

	// SlotCache, when enabled, remembers the probed slot (and caches the
	// pessimal first PUT round trip away) for read-modify-write loops —
	// the ablation the paper's §6.2 parenthetical describes.
	SlotCache   bool
	cachedSlots map[int64]int64

	// Reclaim batches the buffers this client's updates displaced as
	// 12-byte [freelist(4) | addr(8)] records and reports them under
	// rpcFree (§3.2); a batch is flushed by the retire that fills it.
	// Reclaim.Ctrl routes the reports over a control connection.
	Reclaim transport.Reclaimer

	// Stats
	Probes  int64 // hash probes beyond the first slot
	CASFail int64 // PUT chains that lost a tag race

	// PUT/DELETE images.
	entryBuf []byte
	preBuf   [slotSize]byte
	ptrBuf   [8]byte

	// Verb-program scratch (chain.go): the encoded CHASE/SCAN program and
	// its 8-byte match operand.
	progBuf  []byte
	matchBuf [8]byte

	// GetBatch scratch, reused across batches.
	batchOps    []wire.Op
	batchChains [][]wire.Op
	batchProbe  []int
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

// Get performs the §6.1 read: one indirect bounded READ per probe (or,
// for two-choice hashing, one chained round trip reading both candidate
// slots).
func (c *Client) Get(key int64) ([]byte, error) {
	if c.meta.Hash == TwoChoice {
		return c.getTwoChoice(key)
	}
	idx := slotIndex(c.meta.Hash, key, c.meta.NSlots)
	for probes := int64(0); probes < c.meta.NSlots; probes++ {
		ops := c.conn.Ops(1)
		ops[0] = prism.ReadBounded(c.meta.Key, c.meta.slotAddr(idx)+8, entrySize(c.meta.MaxValue))
		res, err := c.conn.Issue(ops)
		if err != nil {
			return nil, err
		}
		v, displaced, err := matchHomeSlot(res[0], key)
		if !displaced {
			return v, err
		}
		c.Probes++
		idx = (idx + 1) % c.meta.NSlots
	}
	return nil, ErrNotFound
}

// matchHomeSlot interprets one probe's indirect bounded READ. displaced
// means the slot holds a different key: the entry (if present) sits
// further down the probe chain.
func matchHomeSlot(r wire.Result, key int64) (val []byte, displaced bool, err error) {
	if r.Status == wire.StatusNAKAccess {
		// Null pointer: empty slot terminates the probe sequence.
		return nil, false, ErrNotFound
	}
	if r.Status != wire.StatusOK {
		return nil, false, fmt.Errorf("kv: GET status %v", r.Status)
	}
	k, v, err := decodeEntry(r.Data)
	if err != nil {
		return nil, false, err
	}
	if k != key {
		return nil, true, nil
	}
	return v, false, nil
}

// matchTwoChoice picks key's entry out of the two candidate-slot reads.
func matchTwoChoice(res []wire.Result, key int64) ([]byte, error) {
	for i := range res {
		if res[i].Status != wire.StatusOK {
			continue // empty slot NAKs on the null pointer
		}
		if k, v, err := decodeEntry(res[i].Data); err == nil && k == key {
			return v, nil
		}
	}
	return nil, ErrNotFound
}

// getTwoChoice reads both candidate slots of a two-choice table in one
// chained round trip.
func (c *Client) getTwoChoice(key int64) ([]byte, error) {
	ops := c.conn.Ops(2)
	c.twoChoiceReads(ops, key)
	res, err := c.conn.Issue(ops)
	if err != nil {
		return nil, err
	}
	return matchTwoChoice(res, key)
}

// twoChoiceReads fills ops[0:2] with the bounded READs of key's two
// candidate slots.
func (c *Client) twoChoiceReads(ops []wire.Op, key int64) {
	s1 := slotIndex(c.meta.Hash, key, c.meta.NSlots)
	s2 := slotIndex2(key, c.meta.NSlots)
	ops[0] = prism.ReadBounded(c.meta.Key, c.meta.slotAddr(s1)+8, entrySize(c.meta.MaxValue))
	ops[1] = prism.ReadBounded(c.meta.Key, c.meta.slotAddr(s2)+8, entrySize(c.meta.MaxValue))
}

// GetBatch performs the §6.1 read for every key behind one doorbell
// (Issuer.IssueBatch): on a live socket the whole train of GET chains is
// staged and the writer rung once, so n lookups cost one write syscall
// instead of n; on the simulator the chains pipeline through the send
// window. visit is called exactly once per key, in key order for every
// key resolved by its home slot(s); keys that linear probing displaced
// past the home slot fall back to individual Gets and are visited last.
// val aliases transport-owned storage and is valid only during the visit
// call — copy to keep.
func (c *Client) GetBatch(keys []int64, visit func(i int, val []byte, err error)) error {
	if len(keys) == 0 {
		return nil
	}
	two := c.meta.Hash == TwoChoice
	opsPerKey := 1
	if two {
		opsPerKey = 2
	}
	if cap(c.batchOps) < len(keys)*opsPerKey {
		c.batchOps = make([]wire.Op, len(keys)*opsPerKey)
	}
	ops := c.batchOps[:len(keys)*opsPerKey]
	if cap(c.batchChains) < len(keys) {
		c.batchChains = make([][]wire.Op, len(keys))
	}
	chains := c.batchChains[:len(keys)]
	for i, key := range keys {
		chains[i] = ops[i*opsPerKey : (i+1)*opsPerKey]
		if two {
			c.twoChoiceReads(chains[i], key)
		} else {
			idx := slotIndex(c.meta.Hash, key, c.meta.NSlots)
			chains[i][0] = prism.ReadBounded(c.meta.Key, c.meta.slotAddr(idx)+8, entrySize(c.meta.MaxValue))
		}
	}
	res, err := c.conn.IssueBatch(chains)
	if err != nil {
		return err
	}
	// Visit every key the batch resolved first: result views are only
	// valid until the next issue on the connection, and the probe
	// fallbacks below issue.
	probe := c.batchProbe[:0]
	for i, key := range keys {
		if two {
			v, err := matchTwoChoice(res[i], key)
			visit(i, v, err)
		} else if v, displaced, err := matchHomeSlot(res[i][0], key); displaced {
			probe = append(probe, i)
		} else {
			visit(i, v, err)
		}
	}
	c.batchProbe = probe
	for _, i := range probe {
		v, err := c.Get(keys[i])
		visit(i, v, err)
	}
	return nil
}

// Put performs the §6.1 out-of-place update: a probe round trip to find
// the slot and learn the current tag, then one chained round trip that
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
// fresh tag (tombstone-free: an empty slot simply has ptr == 0).
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

// findSlot resolves the slot holding key (or an empty slot to claim) and
// its current tag, consulting and feeding the slot cache when enabled.
func (c *Client) findSlot(key int64) (int64, uint64, error) {
	if c.SlotCache {
		if idx, ok := c.cachedSlots[key]; ok {
			return idx, c.tagClock << 16, nil
		}
	}
	idx, tag, err := c.probeSlot(key)
	if err == nil && c.SlotCache {
		if c.cachedSlots == nil {
			c.cachedSlots = make(map[int64]int64)
		}
		c.cachedSlots[key] = idx
	}
	return idx, tag, err
}

// probeSlot reads candidate slots — each a chain of a direct slot READ
// and an indirect bounded READ of its object — until one holds key or is
// empty. Linear probing reads one candidate per round trip and walks on;
// two-choice hashing reads both candidates in its single round trip. The
// slot already holding key wins over an empty candidate of the same
// round trip.
func (c *Client) probeSlot(key int64) (int64, uint64, error) {
	cand := [2]int64{slotIndex(c.meta.Hash, key, c.meta.NSlots)}
	n, rounds := 1, c.meta.NSlots
	if c.meta.Hash == TwoChoice {
		cand[1], n, rounds = slotIndex2(key, c.meta.NSlots), 2, 1
	}
	for ; rounds > 0; rounds-- {
		ops := c.conn.Ops(2 * n)
		for i, idx := range cand[:n] {
			slot := c.meta.slotAddr(idx)
			ops[2*i] = prism.Read(c.meta.Key, slot, slotSize)
			ops[2*i+1] = prism.ReadBounded(c.meta.Key, slot+8, entrySize(c.meta.MaxValue))
		}
		res, err := c.conn.Issue(ops)
		if err != nil {
			return 0, 0, err
		}
		emptyIdx, emptyTag := int64(-1), uint64(0)
		for i, idx := range cand[:n] {
			slotRes, objRes := res[2*i], res[2*i+1]
			if slotRes.Status != wire.StatusOK {
				return 0, 0, fmt.Errorf("kv: slot read status %v", slotRes.Status)
			}
			tag := prism.BE64(slotRes.Data, 0)
			if prism.LE64(slotRes.Data, 8) == 0 {
				if emptyIdx < 0 {
					emptyIdx, emptyTag = idx, tag
				}
				continue
			}
			if objRes.Status == wire.StatusOK {
				if k, _, err := decodeEntry(objRes.Data); err == nil && k == key {
					return idx, tag, nil
				}
			}
		}
		if emptyIdx >= 0 {
			return emptyIdx, emptyTag, nil
		}
		c.Probes++
		cand[0] = (cand[0] + 1) % c.meta.NSlots
	}
	return 0, 0, fmt.Errorf("kv: no free slot for key %d (resize the table)", key)
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
