// Package kv implements the paper's key-value case study (§6): PRISM-KV,
// which performs both GETs and PUTs with one-sided PRISM operations, and
// the Pilaf baseline [31], which reads with one-sided READs (plus
// self-verifying CRCs) and writes through server-CPU RPCs.
//
// PRISM-KV hash slot layout (24 bytes):
//
//	[ tag (8, big-endian) | ptr (8, little-endian) | bound (8, little-endian) ]
//
// The <ptr,bound> pair at offset 8 is exactly the bounded pointer an
// indirect bounded READ consumes, and the whole 24-byte slot is the target
// of the PUT chain's enhanced CAS: compare GT on the tag, swap all fields.
// The tag orders concurrent PUTs; a failed CAS means a newer value landed
// first. (The paper's §6.1 compares the old buffer address instead and
// footnote 2 sketches this generation-tag variant as the more robust
// design; the single-data-argument CAS of Table 1 makes the tag variant
// the one that composes with a server-side ALLOCATE, so we build that.
// Round-trip structure and CPU involvement are identical.)
//
// Object buffers hold [ klen (8, LE) | key | value ] and are allocated
// from PRISM free lists; the slot bound covers the used prefix.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"prism/internal/memory"
)

// Errors returned by the stores.
var (
	ErrNotFound = errors.New("kv: key not found")
	ErrTooLarge = errors.New("kv: object exceeds the largest buffer class")
	ErrKeyRange = errors.New("kv: key outside the table")
)

// slotSize is the PRISM-KV hash slot size.
const slotSize = 24

// entryHeader is the object buffer header (klen).
const entryHeader = 8

// slotIndex is key's slot in a table of nSlots: the paper's evaluation
// indexes a collisionless table (§6.2), so key k lives in slot k and a
// key outside [0, nSlots) has no slot.
func slotIndex(key, nSlots int64) (int64, error) {
	if key < 0 || key >= nSlots {
		return 0, fmt.Errorf("%w: %d not in [0,%d)", ErrKeyRange, key, nSlots)
	}
	return key, nil
}

// appendEntry appends an object buffer image to dst.
func appendEntry(dst []byte, key int64, value []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, 8) // key length (paper: 8-byte keys)
	dst = binary.BigEndian.AppendUint64(dst, uint64(key))
	return append(dst, value...)
}

// decodeEntry splits an object buffer image, validating its key length.
func decodeEntry(b []byte) (key int64, value []byte, err error) {
	if len(b) < entryHeader {
		return 0, nil, fmt.Errorf("kv: entry truncated (%d bytes)", len(b))
	}
	klen := binary.LittleEndian.Uint64(b)
	if klen != 8 || len(b) < entryHeader+8 {
		return 0, nil, fmt.Errorf("kv: bad key length %d", klen)
	}
	key = int64(binary.BigEndian.Uint64(b[entryHeader:]))
	return key, b[entryHeader+8:], nil
}

// entrySize is the buffer bytes needed for a value of n bytes.
func entrySize(n int) uint64 { return uint64(entryHeader + 8 + n) }

// Meta is the control-plane description a client needs to operate on a
// PRISM-KV server: where the structures live and how they are protected.
// Real deployments exchange this at connection setup.
type Meta struct {
	Key       memory.RKey
	HashBase  memory.Addr
	NSlots    int64
	MaxValue  int
	FreeLists []FreeListInfo
}

// FreeListInfo describes one registered size class.
type FreeListInfo struct {
	ID      uint32
	BufSize uint64
}

// hasFreeList reports whether id names one of the store's free lists.
func (m *Meta) hasFreeList(id uint32) bool {
	for _, fl := range m.FreeLists {
		if fl.ID == id {
			return true
		}
	}
	return false
}

// classFor picks the smallest free list fitting n buffer bytes.
func (m *Meta) classFor(n uint64) (uint32, error) {
	for _, fl := range m.FreeLists {
		if n <= fl.BufSize {
			return fl.ID, nil
		}
	}
	return 0, ErrTooLarge
}

func (m *Meta) slotAddr(idx int64) memory.Addr {
	return m.HashBase + memory.Addr(idx*slotSize)
}
