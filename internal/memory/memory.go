// Package memory models a server's registered memory: the regions an
// application pins and registers with its NIC, the rkeys that protect
// them, and the address/bounds checks the NIC performs on every remote
// access. Addresses are 64-bit virtual addresses in a per-server space.
//
// The failure modes mirror real verbs: an access with the wrong rkey, to
// an unregistered address, or crossing a region boundary is rejected with
// a typed error (the simulated equivalent of a NAK).
package memory

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// RKey is a remote protection key returned by registration, required on
// every remote access to the region it protects.
type RKey uint32

// Addr is a virtual address in a server's memory space.
type Addr uint64

// Access errors, surfaced to remote clients as NAKs.
var (
	ErrBadRKey       = errors.New("memory: rkey does not match region")
	ErrUnregistered  = errors.New("memory: address not in any registered region")
	ErrOutOfBounds   = errors.New("memory: access crosses region boundary")
	ErrNullPointer   = errors.New("memory: indirect access through null pointer")
	ErrRegionTooWide = errors.New("memory: registration exceeds space")
)

// Region is a registered, pinned memory region. A region created by
// Snapshot.Fork shares its parent's bytes until its first write copies
// them (see fork.go); ordinary regions own their bytes outright.
type Region struct {
	Base Addr
	Len  uint64
	Key  RKey
	// shared reports that data is the sealed fork parent's, not yet copied.
	shared bool
	data   []byte
}

// End returns the first address past the region.
func (r *Region) End() Addr { return r.Base + Addr(r.Len) }

// Contains reports whether [addr, addr+n) lies inside the region.
func (r *Region) Contains(addr Addr, n uint64) bool {
	return addr >= r.Base && n <= r.Len && addr+Addr(n) <= r.End() && addr+Addr(n) >= addr
}

// Space is one server's memory: a set of registered regions in a single
// virtual address space. The zero value is not usable; call NewSpace.
//
// Concurrency: a Space is not goroutine-safe — even read paths mutate
// the region cache, and Peek hands out views that a concurrent Write
// could race with. Single-goroutine users (the simulator runs each
// cluster on one engine) need no locking. Concurrent users
// (the live socket transport) must hold Guard across each whole PRISM
// primitive — not just each Space call — because one primitive spans
// several calls whose intermediate views must stay stable (CAS peeks
// the current value, copies the previous image, then writes the swapped
// one). Registration mutates the region table and takes the same guard.
type Space struct {
	regions []*Region // sorted by Base
	nextKey RKey
	brk     Addr // bump pointer for Register allocations
	sealed  bool // set by Snapshot; mutations panic afterwards
	// last caches the most recently hit region. Verb streams have strong
	// region locality (a store's hash table or value heap), so most lookups
	// skip the binary search. Forked spaces get their own Region objects,
	// so the cache never leaks across a fork boundary.
	last *Region

	// guard is the space's concurrency lock; see the type comment. Each
	// Space (including forks) owns its own lock.
	guard sync.Mutex
}

// Guard returns the space's concurrency lock. Callers that share the
// space across goroutines hold it across each whole primitive (executor
// ExecInto call), each registration, and each free-list operation on
// buffers inside the space. The simulator's executor path never takes it;
// the provisioning code it shares with the live server (transport.HostCore,
// kv.Server.Load) does, uncontended.
func (s *Space) Guard() *sync.Mutex { return &s.guard }

// NewSpace returns an empty memory space. Address 0 is never allocated so
// that 0 can serve as the null pointer.
func NewSpace() *Space {
	return &Space{nextKey: 1, brk: 0x1000}
}

// Register pins and registers a fresh region of n bytes, returning it with
// a newly generated rkey. Registration is a host-CPU operation (§3.2); the
// caller is responsible for charging its cost if modeled.
func (s *Space) Register(n uint64) (*Region, error) {
	s.checkMutable()
	if n == 0 || n > 1<<40 {
		return nil, ErrRegionTooWide
	}
	r := &Region{Base: s.brk, Len: n, Key: s.nextKey, data: make([]byte, n)}
	s.nextKey++
	s.brk += Addr(n)
	// keep 64-byte alignment between regions so layouts look realistic
	if rem := s.brk % 64; rem != 0 {
		s.brk += 64 - rem
	}
	// brk only grows, so appending keeps regions sorted by Base.
	s.regions = append(s.regions, r)
	return r, nil
}

// RegisterShared registers a fresh region of n bytes under an existing
// rkey, extending that key's protection domain. PRISM applications use
// this so that indirect operations can traverse from metadata to data to
// temporary buffers under one key, as §3.1's protection rule requires.
func (s *Space) RegisterShared(key RKey, n uint64) (*Region, error) {
	if key == 0 || key >= s.nextKey {
		return nil, fmt.Errorf("memory: rkey %d was never issued", key)
	}
	r, err := s.Register(n)
	if err != nil {
		return nil, err
	}
	r.Key = key
	return r, nil
}

// find returns the region containing addr, or nil.
func (s *Space) find(addr Addr) *Region {
	if r := s.last; r != nil && addr >= r.Base && addr < r.End() {
		return r
	}
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].End() > addr })
	if i < len(s.regions) && addr >= s.regions[i].Base {
		s.last = s.regions[i]
		return s.regions[i]
	}
	return nil
}

// Check validates an access of n bytes at addr under key, returning the
// owning region.
func (s *Space) Check(key RKey, addr Addr, n uint64) (*Region, error) {
	if addr == 0 {
		return nil, ErrNullPointer
	}
	r := s.find(addr)
	if r == nil {
		return nil, ErrUnregistered
	}
	if r.Key != key {
		return nil, fmt.Errorf("%w (addr %#x)", ErrBadRKey, addr)
	}
	if !r.Contains(addr, n) {
		return nil, fmt.Errorf("%w ([%#x,+%d) in [%#x,%#x))", ErrOutOfBounds, addr, n, r.Base, r.End())
	}
	return r, nil
}

// Read copies n bytes at addr (validated under key) into a fresh slice.
func (s *Space) Read(key RKey, addr Addr, n uint64) ([]byte, error) {
	b, err := s.Peek(key, addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

// Peek returns a zero-copy view of the n bytes at addr, validated under
// key. The slice aliases the region's backing storage: callers must not
// retain it past the current operation or across a Write that could
// overlap it — use Read when the bytes outlive the access (e.g. they ride
// a response message).
func (s *Space) Peek(key RKey, addr Addr, n uint64) ([]byte, error) {
	r, err := s.Check(key, addr, n)
	if err != nil {
		return nil, err
	}
	off := uint64(addr - r.Base)
	return r.data[off : off+n : off+n], nil
}

// ReadInto copies len(dst) bytes at addr into dst, validated under key —
// Read without the allocation, for callers that reuse a buffer.
func (s *Space) ReadInto(dst []byte, key RKey, addr Addr) error {
	b, err := s.Peek(key, addr, uint64(len(dst)))
	if err != nil {
		return err
	}
	copy(dst, b)
	return nil
}

// Write copies data to addr, validated under key.
func (s *Space) Write(key RKey, addr Addr, data []byte) error {
	s.checkMutable()
	r, err := s.Check(key, addr, uint64(len(data)))
	if err != nil {
		return err
	}
	copy(r.writable(uint64(addr-r.Base), uint64(len(data))), data)
	return nil
}

// ReadU64 reads a little-endian 64-bit word.
func (s *Space) ReadU64(key RKey, addr Addr) (uint64, error) {
	b, err := s.Peek(key, addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// WriteU64 writes a little-endian 64-bit word.
func (s *Space) WriteU64(key RKey, addr Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return s.Write(key, addr, b[:])
}

// BoundedPtr is the paper's <ptr, bound> struct (§3.1): a pointer plus the
// number of valid bytes at its target, stored as two little-endian 64-bit
// words.
type BoundedPtr struct {
	Ptr   Addr
	Bound uint64
}

// BoundedPtrSize is the in-memory size of a BoundedPtr.
const BoundedPtrSize = 16

// ReadBoundedPtr loads a BoundedPtr from addr.
func (s *Space) ReadBoundedPtr(key RKey, addr Addr) (BoundedPtr, error) {
	b, err := s.Peek(key, addr, BoundedPtrSize)
	if err != nil {
		return BoundedPtr{}, err
	}
	return BoundedPtr{
		Ptr:   Addr(binary.LittleEndian.Uint64(b[0:8])),
		Bound: binary.LittleEndian.Uint64(b[8:16]),
	}, nil
}

// WriteBoundedPtr stores a BoundedPtr at addr.
func (s *Space) WriteBoundedPtr(key RKey, addr Addr, p BoundedPtr) error {
	var b [BoundedPtrSize]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(p.Ptr))
	binary.LittleEndian.PutUint64(b[8:16], p.Bound)
	return s.Write(key, addr, b[:])
}

// Bytes exposes the region's backing storage for server-local (CPU-side)
// access, the way an application touches its own pinned memory. The slice
// is writable, so on a forked region it copies the parent's bytes first;
// use Peek for read-only access when the region may be a fork.
func (r *Region) Bytes() []byte { return r.writable(0, r.Len) }

// Slice returns the backing bytes for [addr, addr+n) without rkey
// validation — server-local access only. The slice is writable.
func (r *Region) Slice(addr Addr, n uint64) []byte {
	if !r.Contains(addr, n) {
		panic(fmt.Sprintf("memory: local slice [%#x,+%d) outside region", addr, n))
	}
	return r.writable(uint64(addr-r.Base), n)
}
