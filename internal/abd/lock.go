package abd

import (
	"errors"
	"fmt"
	"time"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

// ABDLOCK (§7.2) implements multi-writer ABD over standard RDMA verbs by
// serializing block access with per-block spinlocks acquired via classic
// CAS, in the style of DrTM [44]. Block layout (in place, fixed size):
//
//	[ lock (8, LE: 0 or holder id) | tag (8, BE) | value (blockSize) ]
//
// A GET/PUT locks the block at a majority, READs tag|value, propagates the
// chosen tag|value with a WRITE, and unlocks — two round trips more than
// PRISM-RS, plus contention-driven retries.

const lockHdr = 16 // lock + tag

// LockMeta describes an ABDLOCK replica.
type LockMeta struct {
	Key       memory.RKey
	Base      memory.Addr
	NBlocks   int64
	BlockSize int
}

func (m *LockMeta) blockAddr(b int64) memory.Addr {
	return m.Base + memory.Addr(b*int64(lockHdr+m.BlockSize))
}

// LockReplica is a passive ABDLOCK storage node: after initialization the
// server CPU does nothing — no RPC handler, no free list — and all protocol
// steps are classic verbs. NewLockReplica publishes its LockMeta for live
// clients; a simulated replica forked from a captured image has nothing to
// attach, since simulated clients are handed their LockMeta.
type LockReplica struct {
	meta LockMeta
}

// NewLockReplica provisions the in-place block array with tag (1,0) on
// host and publishes its LockMeta.
func NewLockReplica(host transport.Host, nBlocks int64, blockSize int) (*LockReplica, error) {
	space := host.Space()
	key, base, err := alloc.RegisterArray(space, 0, uint64(nBlocks), uint64(lockHdr+blockSize))
	if err != nil {
		return nil, fmt.Errorf("abd: lock replica blocks: %w", err)
	}
	meta := LockMeta{Key: key, Base: base, NBlocks: nBlocks, BlockSize: blockSize}
	initTag := MakeTag(1, 0)
	for b := int64(0); b < nBlocks; b++ {
		hdr, err := space.WriteView(meta.Key, meta.blockAddr(b), lockHdr)
		if err != nil {
			return nil, err
		}
		prism.PutBE64(hdr, 8, uint64(initTag)) // unlocked: the lock word stays 0
	}
	host.PublishMeta("lock", meta)
	return &LockReplica{meta: meta}, nil
}

// Meta returns the control-plane description.
func (r *LockReplica) Meta() LockMeta { return r.meta }

// LockClient is an ABDLOCK client, written once over one transport.Issuer
// per replica and a fan-out over them.
type LockClient struct {
	id    uint16
	conns []transport.Issuer
	metas []LockMeta
	f     int
	rngF  func() float64 // jitter source (engine RNG)

	// Stats
	LockRetries int64

	// Per-client scratch. Every phase is one fan-out round waited to its
	// end, so no request of a previous phase is still in flight when a
	// buffer is rewritten (stale duplicates on a lossy network are dropped
	// by their epoch).
	casBuf [16]byte
	imgBuf []byte
	fan    *transport.Fanout
}

// NewLockClient builds a client over one issuer per replica; jitter
// randomizes the lock backoff.
func NewLockClient(id uint16, conns []transport.Issuer, metas []LockMeta, jitter func() float64) *LockClient {
	if len(conns) != len(metas) || len(conns) == 0 || len(conns)%2 == 0 {
		panic("abd: need an odd number of replicas with matching metadata")
	}
	if id == 0 {
		panic("abd: client id 0 is the unlocked sentinel")
	}
	return &LockClient{id: id, conns: conns, metas: metas, f: (len(conns) - 1) / 2, rngF: jitter, fan: transport.NewFanout(conns)}
}

// Bounds of the exponential backoff between lock-acquisition retries.
const (
	backoffMin = 4 * time.Microsecond
	backoffMax = 512 * time.Microsecond
)

// acquire tries to lock block at every replica and returns the set that
// succeeded once a majority is locked; on failure it releases and backs
// off. Mirrors §7.2 (including its liveness hazards, which the backoff
// mitigates).
func (c *LockClient) acquire(block int64) ([]int, error) {
	backoff := backoffMin
	for {
		for i, conn := range c.conns {
			m := &c.metas[i]
			ops := conn.Ops(1)
			ops[0] = prism.ClassicCASBuf(&c.casBuf, m.Key, m.blockAddr(block), 0, uint64(c.id))
			c.fan.Post(i, ops)
		}
		// Lock acquisition needs the outcome from every replica we asked
		// (acquired or not) to know what to release; wait for all.
		res, err := c.fan.Wait()
		if err != nil {
			return nil, err
		}
		var got []int
		for i, r := range res {
			if r[0].Status == wire.StatusOK {
				got = append(got, i)
			}
		}
		if len(got) >= c.f+1 {
			return got, nil
		}
		// Failed: release what we got, back off, retry.
		c.LockRetries++
		if err := c.release(block, got); err != nil {
			return nil, err
		}
		sleep := backoff
		if c.rngF != nil {
			sleep = time.Duration(float64(backoff) * (0.5 + c.rngF()))
		}
		c.conns[0].Sleep(sleep)
		if backoff < backoffMax {
			backoff *= 2
		}
	}
}

// release unlocks block at the given replicas (CAS holder -> 0) and waits
// for completion.
func (c *LockClient) release(block int64, replicas []int) error {
	for _, i := range replicas {
		m := &c.metas[i]
		ops := c.conns[i].Ops(1)
		ops[0] = prism.ClassicCASBuf(&c.casBuf, m.Key, m.blockAddr(block), uint64(c.id), 0)
		c.fan.Post(i, ops)
	}
	_, err := c.fan.Wait()
	return err
}

// readLocked reads tag|value from the locked replicas. The value is the
// fan-out's copy: valid until the next phase posts.
func (c *LockClient) readLocked(block int64, replicas []int) (Tag, []byte, error) {
	for _, i := range replicas {
		m := &c.metas[i]
		ops := c.conns[i].Ops(1)
		ops[0] = prism.Read(m.Key, m.blockAddr(block)+8, uint64(8+m.BlockSize))
		c.fan.Post(i, ops)
	}
	res, err := c.fan.Wait()
	if err != nil {
		return 0, nil, err
	}
	var maxTag Tag
	var maxVal []byte
	for _, r := range res {
		if r[0].Status != wire.StatusOK {
			return 0, nil, fmt.Errorf("abd: locked read status %v", r[0].Status)
		}
		tag := Tag(prism.BE64(r[0].Data, 0))
		if tag > maxTag {
			maxTag = tag
			maxVal = r[0].Data[8:]
		}
	}
	return maxTag, maxVal, nil
}

// writeLocked writes tag|value in place at the locked replicas and returns
// the value as written: the client's own image of it, valid until the next
// write.
func (c *LockClient) writeLocked(block int64, replicas []int, tag Tag, value []byte) ([]byte, error) {
	if cap(c.imgBuf) < 8+len(value) {
		c.imgBuf = make([]byte, 8+len(value))
	}
	img := c.imgBuf[:8+len(value)]
	prism.PutBE64(img, 0, uint64(tag))
	copy(img[8:], value)
	for _, i := range replicas {
		m := &c.metas[i]
		ops := c.conns[i].Ops(1)
		ops[0] = prism.Write(m.Key, m.blockAddr(block)+8, img)
		c.fan.Post(i, ops)
	}
	res, err := c.fan.Wait()
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		if r[0].Status != wire.StatusOK {
			return nil, fmt.Errorf("abd: locked write status %v", r[0].Status)
		}
	}
	return img[8:], nil
}

// Get: lock majority, read, propagate the max version, unlock.
func (c *LockClient) Get(block int64) ([]byte, error) {
	_, val, err := c.GetT(block)
	return val, err
}

// GetT is Get, also returning the version tag observed (for oracles).
func (c *LockClient) GetT(block int64) (Tag, []byte, error) {
	if block < 0 || block >= c.metas[0].NBlocks {
		return 0, nil, ErrBadBlock
	}
	locked, err := c.acquire(block)
	if err != nil {
		return 0, nil, err
	}
	tag, val, err := c.readLocked(block, locked)
	if err == nil {
		val, err = c.writeLocked(block, locked, tag, val)
	}
	if err = errors.Join(err, c.release(block, locked)); err != nil {
		return 0, nil, err
	}
	return tag, val, nil
}

// Put: lock majority, read max tag, write the new version, unlock.
func (c *LockClient) Put(block int64, value []byte) error {
	_, err := c.PutT(block, value)
	return err
}

// PutT is Put, also returning the tag the write was installed at.
func (c *LockClient) PutT(block int64, value []byte) (Tag, error) {
	if block < 0 || block >= c.metas[0].NBlocks {
		return 0, ErrBadBlock
	}
	if len(value) != c.metas[0].BlockSize {
		return 0, fmt.Errorf("abd: value size %d, want %d", len(value), c.metas[0].BlockSize)
	}
	locked, err := c.acquire(block)
	if err != nil {
		return 0, err
	}
	tag, _, err := c.readLocked(block, locked)
	if err == nil {
		tag = tag.Next(c.id)
		_, err = c.writeLocked(block, locked, tag, value)
	}
	return tag, errors.Join(err, c.release(block, locked))
}
