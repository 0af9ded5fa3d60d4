package abd

import (
	"encoding/binary"
	"fmt"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

const rpcFree byte = 1

// ReplicaOptions sizes a PRISM-RS replica.
type ReplicaOptions struct {
	NBlocks   int64
	BlockSize int
	// ExtraBuffers beyond one per block, absorbing in-flight updates that
	// await reclamation; NBlocks+ExtraBuffers is the free list's cap.
	ExtraBuffers int
	// VariableSize enables §7.3's variable-size extension: metadata
	// entries gain a bound field, GETs return only the stored bytes, and
	// PUTs accept any length up to BlockSize.
	VariableSize bool
}

// Replica is one PRISM-RS storage node. After initialization its CPU only
// recycles buffers; all protocol steps are remote one-sided operations.
type Replica struct {
	meta Meta
}

// NewReplica provisions a replica on host — the simulated NIC or a live
// socket server: metadata array, one initial buffer per block (tag (1,0),
// zero value), and a free list for out-of-place writes.
func NewReplica(host transport.Host, opts ReplicaOptions) (*Replica, error) {
	space := host.Space()
	meta := Meta{
		NBlocks:   opts.NBlocks,
		BlockSize: opts.BlockSize,
		FreeList:  1,
		Variable:  opts.VariableSize,
	}
	var err error
	meta.Key, meta.MetaBase, err = alloc.RegisterArray(space, 0, uint64(opts.NBlocks), uint64(meta.entrySize()))
	if err != nil {
		return nil, fmt.Errorf("abd: metadata region: %w", err)
	}
	bufSize := meta.bufSize()
	fl := alloc.NewFreeList(meta.FreeList, bufSize, meta.Key, space, int(opts.NBlocks)+opts.ExtraBuffers)

	// Initialize every block with tag (1,0) and a zero value in a buffer
	// popped from the free list, as an out-of-place write would.
	initTag := MakeTag(1, 0)
	img := make([]byte, bufSize)
	prism.PutBE64(img, 0, uint64(initTag))
	entry := make([]byte, meta.entrySize())
	prism.PutBE64(entry, 0, uint64(initTag))
	for b := int64(0); b < opts.NBlocks; b++ {
		bufAddr, err := fl.Pop()
		if err != nil {
			return nil, fmt.Errorf("abd: initial buffers: %w", err)
		}
		if err := space.Write(meta.Key, bufAddr, img); err != nil {
			return nil, err
		}
		prism.PutLE64(entry, 8, uint64(bufAddr))
		if meta.Variable {
			// The bound covers the whole [tag|value] buffer image so a
			// bounded indirect READ returns both.
			prism.PutLE64(entry, 16, bufSize)
		}
		if err := space.Write(meta.Key, meta.entryAddr(b), entry); err != nil {
			return nil, err
		}
	}
	host.AddFreeList(fl)
	host.SetConnTempKey(meta.Key)
	return AttachReplica(host, meta), nil
}

// AttachReplica is the CPU half of NewReplica: the replica described by
// meta already stands in host's memory and free list (NewReplica just put
// it there, or host was forked from a captured image of one that did),
// and what remains is the reclamation daemon. The three replicas of a
// group are identical after initialization, so one image serves them all.
func AttachReplica(host transport.Host, meta Meta) *Replica {
	host.SetRPCHandler(transport.ReclamationHandler(host, rpcFree, meta.FreeList))
	return &Replica{meta: meta}
}

// Meta returns the control-plane description.
func (r *Replica) Meta() Meta { return r.meta }

// Client executes the PRISM-RS protocol against a replica group. Each
// closed-loop client owns one Client (one connection per replica).
type Client struct {
	id    uint16
	conns []*rdma.Conn
	metas []Meta
	f     int // tolerated failures; quorum = f+1

	// SkipWriteBackIfAgreed enables the classic ABD read optimization:
	// when all f+1 read-phase tags agree, the GET's write-back phase is
	// skipped. Off by default to match the paper's protocol.
	SkipWriteBackIfAgreed bool

	// lastReadAgreed records whether the previous read phase saw
	// unanimous tags (consulted by the write-back optimization).
	lastReadAgreed bool

	// tmpSlot rotates each connection's temp-buffer slot per chain. The
	// ABD client proceeds after f+1 write-phase acks, so a straggler
	// chain may still be live on a connection when the next operation
	// issues its chain there; rotating slots (matched to the transport's
	// send window) keeps their redirect targets disjoint.
	tmpSlot []int

	// Reclaim batches, per replica, the 8-byte addresses of the buffers
	// this client's installs displaced or orphaned, reported under rpcFree
	// (§3.2); full batches are flushed at the end of a write phase.
	// Reclaim[i].Ctrl routes replica i's reports over a control connection.
	Reclaim []transport.Reclaimer

	// Cached CAS masks per replica (entry-size dependent). Read-only after
	// construction, so safe to share with in-flight straggler chains.
	tagMasks  [][]byte
	fullMasks [][]byte

	// Reusable storage for the quorum phases' future slices. Only the
	// slice headers are recycled — the futures themselves stay fresh per
	// call, because a straggler replica completes its future long after
	// the quorum returned.
	readFuts  []*sim.Future[readReply]
	writeFuts []*sim.Future[int]

	// Stats
	WriteBacksSkipped int64
	CASLost           int64 // installs superseded by a newer tag
}

// NewClient builds a client over one connection per replica (2f+1 total).
func NewClient(id uint16, conns []*rdma.Conn, metas []Meta) *Client {
	if len(conns) != len(metas) || len(conns) == 0 || len(conns)%2 == 0 {
		panic("abd: need an odd number of replicas with matching metadata")
	}
	c := &Client{
		id:        id,
		conns:     conns,
		metas:     metas,
		f:         (len(conns) - 1) / 2,
		Reclaim:   make([]transport.Reclaimer, len(conns)),
		tmpSlot:   make([]int, len(conns)),
		tagMasks:  make([][]byte, len(conns)),
		fullMasks: make([][]byte, len(conns)),
		readFuts:  make([]*sim.Future[readReply], len(conns)),
		writeFuts: make([]*sim.Future[int], len(conns)),
	}
	for i := range metas {
		c.Reclaim[i] = transport.NewReclaimer(&rdma.ProcConn{Conn: conns[i]}, rpcFree, 16)
		es := int(metas[i].entrySize())
		c.tagMasks[i] = prism.FieldMask(es, 0, 8)
		c.fullMasks[i] = prism.FullMask(es)
	}
	return c
}

type readReply struct {
	replica int
	tag     Tag
	value   []byte
	ok      bool
	status  wire.Status
}

// readPhase performs the ABD read phase: an indirect READ of the block's
// buffer at every replica; first f+1 replies win.
func (c *Client) readPhase(p *sim.Proc, block int64) (Tag, []byte, error) {
	futs := c.readFuts
	for i := range c.conns {
		i := i
		m := &c.metas[i]
		// Fixed-size blocks dereference a plain pointer; variable-size
		// blocks (§7.3 extension) dereference the <addr,bound> pair so the
		// reply carries only the stored bytes.
		op := prism.ReadIndirect(m.Key, m.entryAddr(block)+8, m.bufSize())
		if m.Variable {
			op = prism.ReadBounded(m.Key, m.entryAddr(block)+8, m.bufSize())
		}
		ops := c.conns[i].Ops(1)
		ops[0] = op
		f := c.conns[i].IssueAsync(ops)
		// Bound to the connection's domain: the completion below runs there.
		rf := sim.NewFuture[readReply](c.conns[i].Engine())
		futs[i] = rf
		f.OnComplete(func(res []wire.Result) {
			rep := readReply{replica: i}
			rep.status = res[0].Status
			if res[0].Status == wire.StatusOK && len(res[0].Data) >= 8 {
				rep.ok = true
				rep.tag = Tag(prism.BE64(res[0].Data, 0))
				rep.value = res[0].Data[8:]
			}
			rf.Complete(rep)
		})
	}
	replies := sim.WaitQuorum(p, c.f+1, futs)
	var maxTag Tag
	var maxVal []byte
	agreed := true
	for _, rep := range replies {
		if !rep.ok {
			return 0, nil, fmt.Errorf("abd: read phase failed at replica %d (status %v)", rep.replica, rep.status)
		}
		if rep.tag != replies[0].tag {
			agreed = false
		}
		if rep.tag > maxTag {
			maxTag = rep.tag
			maxVal = rep.value
		}
	}
	c.lastReadAgreed = agreed
	return maxTag, maxVal, nil
}

// writePhase propagates tag/value to all replicas with the §7.3 chain and
// waits for f+1 CAS acknowledgments.
func (c *Client) writePhase(p *sim.Proc, block int64, tag Tag, value []byte) error {
	if c.metas[0].Variable {
		if len(value) > c.metas[0].BlockSize {
			return ErrTooLarge
		}
	} else if len(value) != c.metas[0].BlockSize {
		return fmt.Errorf("abd: value size %d, want %d", len(value), c.metas[0].BlockSize)
	}
	const slots = rdma.ConnTempSize / rdma.TempSlotSize
	futs := c.writeFuts
	for i := range c.conns {
		i := i
		m := &c.metas[i]
		conn := c.conns[i]
		tmp := conn.TempAddr + memory.Addr(c.tmpSlot[i]*rdma.TempSlotSize)
		c.tmpSlot[i] = (c.tmpSlot[i] + 1) % slots
		entrySize := int(m.entrySize())

		// img and pre are deliberately fresh per chain: the client moves on
		// after f+1 acks, so a straggler replica's chain may still be in
		// flight referencing them when the next operation starts.
		img := make([]byte, 8+len(value))
		prism.PutBE64(img, 0, uint64(tag))
		copy(img[8:], value)

		// tmp mirrors the metadata entry: [tag | addr(redirected) (| bound)].
		pre := make([]byte, entrySize)
		prism.PutBE64(pre, 0, uint64(tag))
		if m.Variable {
			prism.PutLE64(pre, 16, uint64(len(img)))
		}

		ops := conn.Ops(3)
		// 1. WRITE the tag (and bound, in variable mode) to tmp.
		ops[0] = prism.Write(conn.TempKey, tmp, pre)
		// 2. ALLOCATE the new version, redirecting its address to
		//    tmp+8 (immediately after the tag).
		ops[1] = prism.Conditional(prism.RedirectTo(prism.Allocate(m.FreeList, img), conn.TempKey, tmp+8))
		// 3. CAS_GT the metadata entry against *tmp.
		ops[2] = prism.Conditional(prism.CASIndirectData(m.Key, m.entryAddr(block), wire.CASGt, tmp,
			c.tagMasks[i], c.fullMasks[i]))
		f := conn.IssueAsync(ops)
		// Bound to the connection's domain: the completion below runs there.
		rf := sim.NewFuture[int](conn.Engine())
		futs[i] = rf
		f.OnComplete(func(res []wire.Result) {
			okAck := 0
			switch {
			case res[2].Status == wire.StatusOK:
				okAck = 1
				// Old version retired.
				old := prism.LE64(res[2].Data, 8)
				if old != 0 {
					c.retire(i, memory.Addr(old))
				}
			case res[2].Status == wire.StatusCASFailed:
				// Replica already stores a newer tag: counts as an ack
				// (the newer value subsumes ours), but our allocated
				// buffer is orphaned — retire it.
				okAck = 1
				c.CASLost++
				if res[1].Status == wire.StatusOK {
					c.retire(i, res[1].Addr)
				}
			case res[1].Status == wire.StatusRNR:
				okAck = 0 // replica out of buffers; not an ack
			}
			rf.Complete(okAck)
		})
	}
	acks := sim.WaitQuorum(p, c.f+1, futs)
	good := 0
	for _, a := range acks {
		good += a
	}
	if good < c.f+1 {
		// Collect stragglers? The protocol only needs f+1; a failed chain
		// among the first f+1 repliers is rare (RNR). Treat as an error.
		return fmt.Errorf("abd: write phase acked by %d < %d replicas", good, c.f+1)
	}
	return transport.FlushFull(c.Reclaim)
}

// Get performs a linearizable read: ABD read phase, then write-back of the
// maximum version (§7.1) so later reads cannot observe an older value.
func (c *Client) Get(p *sim.Proc, block int64) ([]byte, error) {
	_, val, err := c.GetT(p, block)
	return val, err
}

// GetT is Get, also returning the version tag observed (for oracles).
func (c *Client) GetT(p *sim.Proc, block int64) (Tag, []byte, error) {
	if block < 0 || block >= c.metas[0].NBlocks {
		return 0, nil, ErrBadBlock
	}
	tag, val, err := c.readPhase(p, block)
	if err != nil {
		return 0, nil, err
	}
	if c.SkipWriteBackIfAgreed && c.lastReadAgreed {
		c.WriteBacksSkipped++
		return tag, val, nil
	}
	if err := c.writePhase(p, block, tag, val); err != nil {
		return 0, nil, err
	}
	return tag, val, nil
}

// Put performs a linearizable write: read phase to learn the maximum tag,
// then propagation of the new value at a strictly larger tag.
func (c *Client) Put(p *sim.Proc, block int64, value []byte) error {
	_, err := c.PutT(p, block, value)
	return err
}

// PutT is Put, also returning the tag the write was installed at.
func (c *Client) PutT(p *sim.Proc, block int64, value []byte) (Tag, error) {
	if block < 0 || block >= c.metas[0].NBlocks {
		return 0, ErrBadBlock
	}
	maxTag, _, err := c.readPhase(p, block)
	if err != nil {
		return 0, err
	}
	tag := maxTag.Next(c.id)
	return tag, c.writePhase(p, block, tag, value)
}

func (c *Client) retire(replica int, addr memory.Addr) {
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(addr))
	c.Reclaim[replica].Retire(rec[:])
}
