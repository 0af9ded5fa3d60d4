// Package tx implements the paper's distributed transaction case study
// (§8): PRISM-TX, a timestamp-based optimistic concurrency control
// protocol built from PRISM operations (drawing on Meerkat [38]), and the
// FaRM baseline [10], whose commit protocol locks and updates through
// server-CPU RPCs.
//
// PRISM-TX per-key metadata (40 bytes, §8.2 Figure 8 extended with a
// bound for variable-length values):
//
//	[ PW (8,BE) | PR (8,BE) | C (8,BE) | addr (8,LE) | bound (8,LE) ]
//
//	PW — highest prepare timestamp of a writer of this key
//	PR — highest prepare timestamp of a reader of this key
//	C  — timestamp of the latest committed write
//
// Committed versions live in out-of-place buffers [ ts (8,BE) | klen(8,LE)
// | key (8,BE) | value ], so an indirect bounded READ of <addr,bound>
// returns the version timestamp and value atomically.
package tx

import (
	"encoding/binary"
	"errors"
	"fmt"

	"prism/internal/memory"
)

// Timestamp is a PRISM-TX transaction timestamp: a loosely synchronized
// logical clock reading plus the client id, packed like abd.Tag so that
// big-endian byte comparison matches lexicographic (time, cid) order.
type Timestamp uint64

// MakeTimestamp packs a clock reading and client id.
func MakeTimestamp(clock uint64, client uint16) Timestamp {
	if clock >= 1<<48 {
		panic("tx: clock overflow")
	}
	return Timestamp(clock<<16 | uint64(client))
}

// Clock returns the logical clock component.
func (t Timestamp) Clock() uint64 { return uint64(t) >> 16 }

// Client returns the client id component.
func (t Timestamp) Client() uint16 { return uint16(t) }

func (t Timestamp) String() string { return fmt.Sprintf("(%d,%d)", t.Clock(), t.Client()) }

// InitialVersion is the version preloaded objects carry.
var InitialVersion = MakeTimestamp(1, 0)

// Metadata field offsets.
const (
	offPW    = 0
	offPR    = 8
	offC     = 16
	offAddr  = 24
	offBound = 32
	metaSize = 40
)

// Commit outcomes.
var (
	// ErrAborted reports a validation failure; the caller may retry the
	// transaction from the start.
	ErrAborted = errors.New("tx: transaction aborted")
	// ErrNotFound reports a read of a key that is not loaded.
	ErrNotFound = errors.New("tx: key not found")
)

// Meta describes one PRISM-TX shard to clients.
type Meta struct {
	Key      memory.RKey
	MetaBase memory.Addr
	NSlots   int64
	MaxValue int
	FreeList uint32
}

func (m *Meta) slotAddr(idx int64) memory.Addr {
	return m.MetaBase + memory.Addr(idx*metaSize)
}

// bufSize is the buffer size for a value of n bytes.
func bufSize(n int) uint64 { return uint64(8 + 8 + 8 + n) } // ts|klen|key|value

// fillVersion writes the version image into b, which must be
// bufSize(len(value)) bytes; callers bring their own scratch.
func fillVersion(b []byte, ts Timestamp, key int64, value []byte) {
	binary.BigEndian.PutUint64(b[0:], uint64(ts))
	binary.LittleEndian.PutUint64(b[8:], 8)
	binary.BigEndian.PutUint64(b[16:], uint64(key))
	copy(b[24:], value)
}

func decodeVersion(b []byte) (ts Timestamp, key int64, value []byte, err error) {
	if len(b) < 24 {
		return 0, 0, nil, fmt.Errorf("tx: version buffer truncated (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint64(b[8:]) != 8 {
		return 0, 0, nil, fmt.Errorf("tx: bad key length")
	}
	return Timestamp(binary.BigEndian.Uint64(b)), int64(binary.BigEndian.Uint64(b[16:])), b[24:], nil
}
