package tx

import (
	"encoding/binary"
	"fmt"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

const rpcFree byte = 1

// Cached CAS masks for the validation and commit layouts. Read-only after
// init, shared by every client and shard.
var (
	pwprFullMask = prism.FullMask(16)        // (PW,PR) pair
	prOnlyMask   = prism.FieldMask(16, 8, 8) // swap PR
	pwOnlyMask   = prism.FieldMask(16, 0, 8) // compare/swap PW
	cOnlyMask    = prism.FieldMask(24, 0, 8) // compare (or swap) C
	cEntryMask   = prism.FullMask(24)        // swap [C|addr|bound]
)

// ShardOptions sizes a PRISM-TX shard.
type ShardOptions struct {
	NSlots   int64
	MaxValue int
	// ExtraBuffers beyond one per slot; NSlots+ExtraBuffers is the cap.
	ExtraBuffers int
}

// Shard is one PRISM-TX storage server. All transaction processing —
// execution reads, validation, commit — runs as one-sided PRISM
// operations; the host CPU only recycles buffers.
type Shard struct {
	host transport.Host
	meta Meta
	// loadBuf is Load's version image, reused from key to key.
	loadBuf []byte
}

// NewShard provisions the metadata array and version-buffer free list on
// host — the simulated NIC or a live socket server.
func NewShard(host transport.Host, opts ShardOptions) (*Shard, error) {
	space := host.Space()
	key, base, err := alloc.RegisterArray(space, 0, uint64(opts.NSlots), metaSize)
	if err != nil {
		return nil, fmt.Errorf("tx: metadata region: %w", err)
	}
	meta := Meta{
		Key:      key,
		MetaBase: base,
		NSlots:   opts.NSlots,
		MaxValue: opts.MaxValue,
		FreeList: 1,
	}
	host.AddFreeList(alloc.NewFreeList(meta.FreeList, bufSize(opts.MaxValue), key, space,
		int(opts.NSlots)+opts.ExtraBuffers))
	host.SetConnTempKey(key)
	return AttachShard(host, meta), nil
}

// AttachShard is the CPU half of NewShard: the shard described by meta
// already stands in host's memory and free list (NewShard just put it
// there, or host was forked from a captured image of one that did), and
// what remains is the reclamation daemon and the published Meta.
func AttachShard(host transport.Host, meta Meta) *Shard {
	host.SetRPCHandler(transport.ReclamationHandler(host, rpcFree, meta.FreeList))
	host.PublishMeta("tx", meta)
	return &Shard{host: host, meta: meta}
}

// Meta returns the control-plane description.
func (s *Shard) Meta() Meta { return s.meta }

// Load installs key=value at InitialVersion (bulk loading). Keys map to
// slots collisionlessly (slot = key mod NSlots); the YCSB-T keyspace is
// preloaded, as in the paper's evaluation.
func (s *Shard) Load(key int64, value []byte) error {
	if len(value) > s.meta.MaxValue {
		return fmt.Errorf("tx: value too large")
	}
	fl := s.host.FreeList(s.meta.FreeList)
	buf, err := fl.Pop()
	if err != nil {
		return fmt.Errorf("tx: load out of buffers: %w", err)
	}
	space := s.host.Space()
	if s.loadBuf == nil {
		s.loadBuf = make([]byte, bufSize(s.meta.MaxValue))
	}
	img := s.loadBuf[:bufSize(len(value))]
	fillVersion(img, InitialVersion, key, value)
	if err := space.Write(s.meta.Key, buf, img); err != nil {
		return err
	}
	idx := ((key % s.meta.NSlots) + s.meta.NSlots) % s.meta.NSlots
	var entry [metaSize]byte
	prism.PutBE64(entry[:], offPW, uint64(InitialVersion))
	prism.PutBE64(entry[:], offPR, uint64(InitialVersion))
	prism.PutBE64(entry[:], offC, uint64(InitialVersion))
	prism.PutLE64(entry[:], offAddr, uint64(buf))
	prism.PutLE64(entry[:], offBound, uint64(len(img)))
	return space.Write(s.meta.Key, s.meta.slotAddr(idx), entry[:])
}

// Client is a PRISM-TX client, written once over one transport.Issuer per
// shard and a fan-out over them. Keys map to shards by modulo.
type Client struct {
	id    uint16
	conns []transport.Issuer
	metas []Meta
	clock uint64

	// Reclaim batches, per shard, the 8-byte addresses of the version
	// buffers this client's commits displaced or orphaned, reported under
	// rpcFree (§3.2); full batches are flushed at the end of a commit.
	// Reclaim[i].Ctrl routes shard i's reports over a control connection.
	Reclaim []transport.Reclaimer

	// Stats
	Commits int64
	Aborts  int64

	// Reusable per-client scratch for Commit. Every phase is one fan-out
	// round waited to its end (nothing of this client is in flight when a
	// buffer is rewritten) and stale duplicates on a lossy network are
	// dropped by their epoch, so the storage can be recycled across
	// transactions. dataArena carves the CAS operand and version images of
	// one commit; concurrent chains of a single wave each carve disjoint
	// blocks. perShard counts a commit's write keys by shard.
	fan       *transport.Fanout
	valBuf    []valKey
	perShard  []int
	dataArena []byte
}

// carve returns an n-byte zeroed block from the client's commit arena.
// Growth relocates the arena, but previously carved blocks stay valid on
// the old backing array (they are never written through the arena again).
func (c *Client) carve(n int) []byte {
	off := len(c.dataArena)
	if cap(c.dataArena) < off+n {
		nb := make([]byte, off, 2*(off+n)+64)
		copy(nb, c.dataArena)
		c.dataArena = nb
	}
	c.dataArena = c.dataArena[:off+n]
	b := c.dataArena[off : off+n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// NewClient builds a transaction client over one issuer per shard. A
// control connection per shard is set as Reclaim[i].Ctrl.
func NewClient(id uint16, conns []transport.Issuer, metas []Meta) *Client {
	if len(conns) != len(metas) || len(conns) == 0 {
		panic("tx: shard connections and metadata must match")
	}
	if id == 0 {
		panic("tx: client id 0 is reserved for preloaded versions")
	}
	c := &Client{
		id:       id,
		conns:    conns,
		metas:    metas,
		Reclaim:  make([]transport.Reclaimer, len(conns)),
		fan:      transport.NewFanout(conns),
		perShard: make([]int, len(conns)),
	}
	for i, conn := range conns {
		c.Reclaim[i] = transport.NewReclaimer(conn, rpcFree, 16)
	}
	return c
}

func (c *Client) shardOf(key int64) int {
	return int(((key % int64(len(c.conns))) + int64(len(c.conns))) % int64(len(c.conns)))
}

func (c *Client) slotOf(key int64, shard int) memory.Addr {
	m := &c.metas[shard]
	idx := ((key % m.NSlots) + m.NSlots) % m.NSlots
	return m.slotAddr(idx)
}

// Tx is one transaction: buffered reads and writes awaiting commit. Commit
// posts its chains in readOrder and order, never in map order: the order
// chains leave a machine in is part of the simulation's outcome.
type Tx struct {
	c         *Client
	reads     map[int64]Timestamp // key -> RC observed
	readOrder []int64             // read keys in first-read order
	writes    map[int64][]byte
	order     []int64 // write keys in first-write order
	doomed    bool    // repeated reads disagreed; must abort
}

// valKey is one key undergoing prepare-phase validation, and — a write key
// — commit-phase installation.
type valKey struct {
	key     int64
	shard   int
	isWrite bool
	rc      Timestamp
	hasRead bool
	// raisedPW: the write check succeeded, so an abort must bump C.
	raisedPW bool
	// nth: this is the nth write key of the transaction on its shard.
	nth int
}

// Begin starts a transaction.
func (c *Client) Begin() *Tx {
	return &Tx{c: c, reads: make(map[int64]Timestamp), writes: make(map[int64][]byte)}
}

// Read returns key's committed value as of execution time (§8.2 execution
// phase): one round trip chaining a direct READ of the metadata C with an
// indirect bounded READ of the version buffer. RC is the larger of the
// metadata C and the buffer's embedded timestamp:
//
//   - normally they agree (the commit CAS installs both atomically);
//   - after an aborted writer bumped C (§8.2's abort rule), the metadata C
//     exceeds the buffer timestamp; the bump acts as a committed no-op
//     write, so the current value is correct *at the bumped version* —
//     taking the max is what lets readers revalidate against the raised
//     PW instead of aborting forever;
//   - if a commit lands between the two reads of the chain, the buffer
//     timestamp exceeds the C we read, and the buffer's (ts, value) pair
//     is self-consistent.
//
// Reads see the transaction's own buffered writes first.
func (t *Tx) Read(key int64) ([]byte, error) {
	if v, ok := t.writes[key]; ok {
		return v, nil
	}
	c := t.c
	sh := c.shardOf(key)
	m := &c.metas[sh]
	slot := c.slotOf(key, sh)
	ops := c.conns[sh].Ops(2)
	ops[0] = prism.Read(m.Key, slot+offC, 8)
	ops[1] = prism.ReadBounded(m.Key, slot+offAddr, bufSize(m.MaxValue))
	res, err := c.conns[sh].Issue(ops)
	if err != nil {
		return nil, err
	}
	if res[1].Status == wire.StatusNAKAccess {
		return nil, ErrNotFound
	}
	if res[0].Status != wire.StatusOK || res[1].Status != wire.StatusOK {
		return nil, fmt.Errorf("tx: read statuses %v %v", res[0].Status, res[1].Status)
	}
	metaC := Timestamp(prism.BE64(res[0].Data, 0))
	bufTS, k, value, err := decodeVersion(res[1].Data)
	if err != nil {
		return nil, err
	}
	if k != key {
		return nil, fmt.Errorf("tx: slot collision: read key %d, want %d (size the table collisionlessly)", k, key)
	}
	rc := bufTS
	if metaC > rc {
		rc = metaC
	}
	if prev, ok := t.reads[key]; !ok {
		t.readOrder = append(t.readOrder, key)
	} else if prev != rc {
		// The key changed between two of our own reads: the transaction
		// has returned inconsistent values to the application and must
		// abort at commit.
		t.doomed = true
	}
	t.reads[key] = rc
	return value, nil
}

// ReadVersion returns the version this transaction observed for key (zero
// if the key was not read) — used by correctness oracles in tests.
func (t *Tx) ReadVersion(key int64) Timestamp { return t.reads[key] }

// Write buffers a write (§8.2: writes are local until commit).
func (t *Tx) Write(key int64, value []byte) {
	if _, seen := t.writes[key]; !seen {
		t.order = append(t.order, key)
	}
	t.writes[key] = append([]byte(nil), value...)
}

// chooseTS picks the commit timestamp: greater than every RC read and the
// client's logical clock (§8.2 prepare phase, as in Meerkat).
func (t *Tx) chooseTS() Timestamp {
	clock := t.c.clock + 1
	for _, rc := range t.reads {
		if rc.Clock() >= clock {
			clock = rc.Clock() + 1
		}
	}
	t.c.clock = clock
	return MakeTimestamp(clock, t.c.id)
}

// Commit runs the prepare (validation) and commit phases. On validation
// failure it returns ErrAborted; the transaction's effects are discarded
// (except conservative PW/PR advances, which are safe).
//
// Returns the commit timestamp on success.
func (t *Tx) Commit() (Timestamp, error) {
	c := t.c
	ts := t.chooseTS()
	if t.doomed {
		c.Aborts++
		return 0, ErrAborted
	}

	// --- Prepare phase: one chain per key, all shards in parallel: the
	// write set in first-write order, then the keys only read in
	// first-read order.
	c.dataArena = c.dataArena[:0]
	keys := c.valBuf[:0]
	clear(c.perShard)
	for _, k := range t.order {
		rc, hasRead := t.reads[k]
		sh := c.shardOf(k)
		keys = append(keys, valKey{key: k, shard: sh, isWrite: true, rc: rc, hasRead: hasRead, nth: c.perShard[sh]})
		c.perShard[sh]++
	}
	for _, k := range t.readOrder {
		if _, isWrite := t.writes[k]; !isWrite {
			keys = append(keys, valKey{key: k, shard: c.shardOf(k), rc: t.reads[k], hasRead: true})
		}
	}
	c.valBuf = keys

	for _, vk := range keys {
		conn := c.conns[vk.shard]
		slot := c.slotOf(vk.key, vk.shard)
		m := &c.metas[vk.shard]
		nOps := 0
		if vk.hasRead {
			nOps++
		}
		if vk.isWrite {
			nOps++
		}
		ops := conn.Ops(nOps)
		oi := 0
		if vk.hasRead {
			// Read validation (§8.2): single CAS checking RC|TS > PW|PR
			// over the 16-byte (PW,PR) pair, swapping PR only.
			data := c.carve(16)
			prism.PutBE64(data, 0, uint64(vk.rc))
			prism.PutBE64(data, 8, uint64(ts))
			ops[oi] = prism.CAS(m.Key, slot+offPW, wire.CASGt, data,
				pwprFullMask, prOnlyMask)
			oi++
		}
		if vk.isWrite {
			// Write validation: CAS TS > PW swapping PW; the returned
			// pair carries PR for the client-side TS > PR check. For RMW
			// keys the op is CONDITIONAL on the read validation (§8.2:
			// "if all read validation checks succeed, the client moves on
			// to validate the writes") — skipping it when the read check
			// failed keeps PW from being raised by a transaction that is
			// doomed anyway, which is what keeps contended keys live.
			data := c.carve(16)
			prism.PutBE64(data, 0, uint64(ts))
			op := prism.CAS(m.Key, slot+offPW, wire.CASGt, data,
				pwOnlyMask, pwOnlyMask)
			if vk.hasRead {
				op = prism.Conditional(op)
			}
			ops[oi] = op
		}
		c.fan.Post(vk.shard, ops)
	}

	vres, err := c.fan.Wait()
	if err != nil {
		return 0, err
	}
	ok := true
	for i, res := range vres {
		vk := &keys[i]
		ri := 0
		if vk.hasRead {
			switch res[ri].Status {
			case wire.StatusOK:
				// validated and PR advanced
			case wire.StatusCASFailed:
				// Distinguish (§8.2): if the stored PW still equals RC the
				// read is valid (PR was already >= TS); otherwise a
				// concurrent writer prepared and we must abort. For an
				// RMW key even the benign case aborts: PR >= TS means a
				// later reader prepared, so our write cannot commit.
				pw := Timestamp(prism.BE64(res[ri].Data, 0))
				if pw != vk.rc || vk.isWrite {
					ok = false
				}
			default:
				return 0, fmt.Errorf("tx: read validation status %v", res[ri].Status)
			}
			ri++
		}
		if vk.isWrite {
			switch res[ri].Status {
			case wire.StatusOK:
				// TS > PW held and PW advanced; now check TS against PR
				// using the returned old pair. Equality is allowed:
				// timestamps are globally unique, so PR == TS can only be
				// this transaction's own read validation on an RMW key.
				// (The paper states TS > PR; with the RMW key present in
				// both sets, the self-read exemption is required for any
				// read-modify-write to commit.)
				vk.raisedPW = true
				pr := Timestamp(prism.BE64(res[ri].Data, 8))
				if ts < pr {
					ok = false // a prepared reader would miss our write
				}
			case wire.StatusCASFailed:
				ok = false // a more recent writer prepared first
			case wire.StatusNotExecuted:
				ok = false // read validation failed; write check skipped
			default:
				return 0, fmt.Errorf("tx: write validation status %v", res[ri].Status)
			}
		}
	}

	if !ok {
		return 0, t.abort(ts, keys)
	}

	// --- Commit phase: install writes with the ALLOCATE/WRITE/CAS chain.
	// Concurrent chains on one connection each use a distinct slot of the
	// connection's temporary buffer (the redirect target); when a
	// transaction writes more keys on one shard than there are slots, the
	// installs proceed in waves: a shard's nth write key goes in wave
	// nth/slotsPerConn, on slot nth%slotsPerConn.
	const slotsPerConn = transport.ConnTempSize / transport.TempSlotSize
	writes := keys[:len(t.order)]
	for wave, left := 0, len(writes); left > 0; wave++ {
		for _, vk := range writes {
			if vk.nth/slotsPerConn != wave {
				continue
			}
			value := t.writes[vk.key]
			m := &c.metas[vk.shard]
			conn := c.conns[vk.shard]
			slot := c.slotOf(vk.key, vk.shard)
			img := c.carve(int(bufSize(len(value))))
			fillVersion(img, ts, vk.key, value)

			tempAddr, tempKey := conn.Temp()
			tmp := tempAddr + memory.Addr(vk.nth%slotsPerConn*transport.TempSlotSize)
			pre := c.carve(24) // [C | addr(redirected) | bound]
			prism.PutBE64(pre, 0, uint64(ts))
			prism.PutLE64(pre, 16, uint64(len(img)))
			ptrBuf := c.carve(8)
			prism.PutLE64(ptrBuf, 0, uint64(tmp))
			ops := conn.Ops(3)
			ops[0] = prism.Write(tempKey, tmp, pre)
			ops[1] = prism.Conditional(prism.RedirectTo(prism.Allocate(m.FreeList, img), tempKey, tmp+8))
			casOp := prism.CAS(m.Key, slot+offC, wire.CASGt, ptrBuf, cOnlyMask, cEntryMask)
			casOp.Flags |= wire.FlagDataIndirect
			ops[2] = prism.Conditional(casOp)
			c.fan.Post(vk.shard, ops)
		}
		wres, err := c.fan.Wait()
		if err != nil {
			return 0, err
		}
		for _, vk := range writes {
			if vk.nth/slotsPerConn != wave {
				continue
			}
			res := wres[0]
			wres = wres[1:]
			left--
			switch res[2].Status {
			case wire.StatusOK:
				old := prism.LE64(res[2].Data, 8)
				if old != 0 {
					c.retire(vk.shard, memory.Addr(old))
				}
			case wire.StatusCASFailed:
				// A transaction with a later timestamp already installed
				// a newer version of this key: our write is subsumed in
				// the serial order (Thomas write rule). Retire our
				// orphaned buffer.
				if res[1].Status == wire.StatusOK {
					c.retire(vk.shard, res[1].Addr)
				}
			default:
				return 0, fmt.Errorf("tx: commit install status %v", res[2].Status)
			}
		}
	}
	// The commit stands whether or not its reports got out; a connection
	// that failed one fails the next transaction's issue.
	_ = transport.FlushFull(c.Reclaim)
	c.Commits++
	return ts, nil
}

// abort leaves PW/PR as is (the paper: conservative timestamps are always
// safe) but bumps C for keys whose write check succeeded, unblocking
// future readers (§8.2). It returns ErrAborted, or the transport error
// that stopped the bumps.
func (t *Tx) abort(ts Timestamp, keys []valKey) error {
	c := t.c
	c.Aborts++
	for _, vk := range keys {
		if !vk.raisedPW {
			continue // no write check, or it did not succeed: nothing to unblock
		}
		m := &c.metas[vk.shard]
		slot := c.slotOf(vk.key, vk.shard)
		data := c.carve(24)
		prism.PutBE64(data, 0, uint64(ts))
		ops := c.conns[vk.shard].Ops(1)
		ops[0] = prism.CAS(m.Key, slot+offC, wire.CASGt, data, cOnlyMask, cOnlyMask)
		c.fan.Post(vk.shard, ops)
	}
	if _, err := c.fan.Wait(); err != nil {
		return err
	}
	return ErrAborted
}

func (c *Client) retire(shard int, addr memory.Addr) {
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(addr))
	c.Reclaim[shard].Retire(rec[:])
}
