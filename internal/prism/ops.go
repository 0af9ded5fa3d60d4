package prism

import (
	"encoding/binary"

	"prism/internal/memory"
	"prism/internal/wire"
)

// Op constructors: thin, readable builders for the wire operations used by
// the applications. They keep flag/byte-layout details in one place.

// Read builds a direct READ of length bytes at addr.
func Read(key memory.RKey, addr memory.Addr, length uint64) wire.Op {
	return wire.Op{Code: wire.OpRead, RKey: key, Target: addr, Len: length}
}

// ReadIndirect builds a READ through the 8-byte pointer stored at addr.
func ReadIndirect(key memory.RKey, addr memory.Addr, length uint64) wire.Op {
	op := Read(key, addr, length)
	op.Flags |= wire.FlagTargetIndirect
	return op
}

// ReadBounded builds a READ through the <ptr,bound> struct stored at addr,
// returning at most min(length, bound) bytes (§3.1 variable-length reads).
func ReadBounded(key memory.RKey, addr memory.Addr, length uint64) wire.Op {
	op := Read(key, addr, length)
	op.Flags |= wire.FlagBounded
	return op
}

// Write builds a direct WRITE of data to addr.
func Write(key memory.RKey, addr memory.Addr, data []byte) wire.Op {
	return wire.Op{Code: wire.OpWrite, RKey: key, Target: addr, Data: data}
}

// WriteIndirect builds a WRITE through the 8-byte pointer stored at addr.
func WriteIndirect(key memory.RKey, addr memory.Addr, data []byte) wire.Op {
	op := Write(key, addr, data)
	op.Flags |= wire.FlagTargetIndirect
	return op
}

// Allocate builds an ALLOCATE of data from the given free list (§3.2).
func Allocate(freeList uint32, data []byte) wire.Op {
	return wire.Op{Code: wire.OpAllocate, FreeList: freeList, Data: data}
}

// CAS builds an enhanced compare-and-swap (§3.3) over width len(data)
// bytes. Nil masks mean "all bits". Operands are compared as big-endian
// unsigned integers.
func CAS(key memory.RKey, addr memory.Addr, mode wire.CASMode, data, compareMask, swapMask []byte) wire.Op {
	return wire.Op{
		Code:        wire.OpCAS,
		Mode:        mode,
		RKey:        key,
		Target:      addr,
		Data:        data,
		CompareMask: compareMask,
		SwapMask:    swapMask,
	}
}

// CASIndirectData marks the CAS data argument as a server-side pointer:
// the true operand is loaded from dataPtr at execution time (§3.3). width
// is the operand width, carried by the masks.
func CASIndirectData(key memory.RKey, addr memory.Addr, mode wire.CASMode, dataPtr memory.Addr, compareMask, swapMask []byte) wire.Op {
	var ptr [8]byte
	binary.LittleEndian.PutUint64(ptr[:], uint64(dataPtr))
	op := CAS(key, addr, mode, ptr[:], compareMask, swapMask)
	op.Flags |= wire.FlagDataIndirect
	return op
}

// CASIndirectDataBuf is CASIndirectData with caller-provided scratch for
// the 8-byte pointer operand, for zero-allocation hot paths. The scratch
// must stay untouched until the response arrives.
func CASIndirectDataBuf(buf *[8]byte, key memory.RKey, addr memory.Addr, mode wire.CASMode, dataPtr memory.Addr, compareMask, swapMask []byte) wire.Op {
	binary.LittleEndian.PutUint64(buf[:], uint64(dataPtr))
	op := CAS(key, addr, mode, buf[:], compareMask, swapMask)
	op.Flags |= wire.FlagDataIndirect
	return op
}

// ClassicCAS builds the legacy RDMA 8-byte CAS with separate expect and
// desired operands (little-endian, as the legacy verb). Available on stock
// RDMA NICs; the baselines' lock protocols use it.
func ClassicCAS(key memory.RKey, addr memory.Addr, expect, desired uint64) wire.Op {
	data := make([]byte, 16)
	binary.LittleEndian.PutUint64(data[:8], expect)
	binary.LittleEndian.PutUint64(data[8:], desired)
	return wire.Op{Code: wire.OpClassicCAS, RKey: key, Target: addr, Data: data}
}

// ClassicCASBuf is ClassicCAS with caller-provided scratch for the
// 16-byte operand pair, for zero-allocation hot paths. The scratch must
// stay untouched until the response arrives.
func ClassicCASBuf(buf *[16]byte, key memory.RKey, addr memory.Addr, expect, desired uint64) wire.Op {
	binary.LittleEndian.PutUint64(buf[:8], expect)
	binary.LittleEndian.PutUint64(buf[8:], desired)
	return wire.Op{Code: wire.OpClassicCAS, RKey: key, Target: addr, Data: buf[:]}
}

// Send builds a two-sided SEND carrying payload (dispatched to the
// server's RPC handler).
func Send(payload []byte) wire.Op {
	return wire.Op{Code: wire.OpSend, Data: payload}
}

// Conditional marks op to execute only if the previous op executed on
// its connection succeeded (§3.4; Executor.Step).
func Conditional(op wire.Op) wire.Op {
	op.Flags |= wire.FlagConditional
	return op
}

// RedirectTo routes op's output (READ data or ALLOCATE address) to a
// server-side address instead of the response (§3.4). The redirect target
// is validated under op.RKey — for ops that otherwise carry no rkey (e.g.
// ALLOCATE), set key to the region protecting the redirect target, which
// for chains is usually the connection's temporary buffer.
func RedirectTo(op wire.Op, key memory.RKey, addr memory.Addr) wire.Op {
	op.Flags |= wire.FlagRedirect
	op.RKey = key
	op.RedirectTo = addr
	return op
}

// Mask builders for multi-field CAS layouts.

// FieldMask returns a width-byte mask with 0xFF over [off, off+n).
func FieldMask(width, off, n int) []byte {
	m := make([]byte, width)
	for i := off; i < off+n; i++ {
		m[i] = 0xFF
	}
	return m
}

// FullMask returns a width-byte all-ones mask.
func FullMask(width int) []byte { return FieldMask(width, 0, width) }

// Byte-order conventions (documented once, relied on everywhere):
//
//   - Fields that participate in CAS *comparison* (tags, timestamps) are
//     stored big-endian, because the enhanced CAS compares masked operands
//     as big-endian unsigned integers (network order, like Mellanox
//     extended atomics).
//   - Pointer fields (addresses dereferenced by indirect operations, and
//     the output of ALLOCATE redirects) are little-endian, the hardware
//     pointer format. CAS may still *swap* them — a swap moves bytes
//     verbatim, so byte order is irrelevant as long as the compare mask
//     excludes pointer fields.

// PutLE64 stores v little-endian at b[off:off+8] (pointer fields).
func PutLE64(b []byte, off int, v uint64) {
	binary.LittleEndian.PutUint64(b[off:off+8], v)
}

// LE64 loads the little-endian u64 at b[off:off+8] (pointer fields).
func LE64(b []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(b[off : off+8])
}

// Big-endian field helpers: enhanced-CAS operands compare as big-endian
// unsigned integers, so multi-field structures store fields big-endian
// with the most significant field first.

// PutBE64 stores v big-endian at b[off:off+8].
func PutBE64(b []byte, off int, v uint64) {
	binary.BigEndian.PutUint64(b[off:off+8], v)
}

// BE64 loads the big-endian u64 at b[off:off+8].
func BE64(b []byte, off int) uint64 {
	return binary.BigEndian.Uint64(b[off : off+8])
}
