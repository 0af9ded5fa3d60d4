// Package wire defines the message formats exchanged between client and
// server NICs: classic RDMA verbs, the PRISM extensions (§3, Table 1), and
// the five extra header flags the paper adds to the RDMA BTH (§4.2).
//
// Messages encode to real byte strings (encoding/binary, little-endian).
// The encoded sizes drive the simulator's bandwidth accounting, so the
// throughput ceilings in the reproduced figures come from actual message
// sizes rather than assumed constants.
package wire

import (
	"fmt"

	"prism/internal/memory"
)

// OpCode identifies a remote operation.
type OpCode uint8

// Operation codes. Send/Receive is the two-sided path used by the RPC
// layer; the rest are one-sided.
const (
	OpInvalid OpCode = iota
	OpRead
	OpWrite
	OpCAS        // enhanced compare-and-swap (§3.3), single data argument + masks
	OpClassicCAS // legacy 8-byte CAS with separate expect/desired operands
	OpFetchAdd   // classic fetch-and-add
	OpAllocate   // PRISM ALLOCATE (§3.2)
	OpSend       // two-sided send
	OpChase      // bounded server-side pointer chase (DESIGN.md §14)
	OpScan       // ranged multi-key read with byte budget + cursor (DESIGN.md §14)
)

func (o OpCode) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpCAS:
		return "CAS"
	case OpClassicCAS:
		return "CLASSIC_CAS"
	case OpFetchAdd:
		return "FETCH_ADD"
	case OpAllocate:
		return "ALLOCATE"
	case OpSend:
		return "SEND"
	case OpChase:
		return "CHASE"
	case OpScan:
		return "SCAN"
	default:
		return fmt.Sprintf("OpCode(%d)", uint8(o))
	}
}

// Flags are the five PRISM BTH flags (§4.2): three for indirection (target
// indirect, data indirect, bounded target) and two for chaining
// (conditional, redirect).
type Flags uint8

// PRISM header flags.
const (
	FlagTargetIndirect Flags = 1 << iota // target address is a pointer to the real target
	FlagDataIndirect                     // data argument is a server-side pointer to the source data
	FlagBounded                          // target is a <ptr,bound> struct; length is clamped to bound
	FlagConditional                      // execute only if the previous op on this connection succeeded
	FlagRedirect                         // write output to RedirectTo instead of returning it
)

// Has reports whether all bits in f2 are set.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// CASMode selects the comparison operator of the enhanced CAS (§3.3).
type CASMode uint8

// Comparison modes. EQ is the classic bitwise equality; GT/LT compare the
// masked operands as little-endian unsigned integers, supporting the
// versioned-update pattern.
const (
	CASEq CASMode = iota
	CASGt
	CASLt
)

func (m CASMode) String() string {
	switch m {
	case CASEq:
		return "EQ"
	case CASGt:
		return "GT"
	case CASLt:
		return "LT"
	default:
		return fmt.Sprintf("CASMode(%d)", uint8(m))
	}
}

// MaxCASBytes is the widest enhanced-CAS operand (§3.3, Mellanox extended
// atomics support up to 32 bytes).
const MaxCASBytes = 32

// Op is one remote operation; a request carries a chain of them.
type Op struct {
	Code  OpCode
	Flags Flags
	RKey  memory.RKey
	// Target is the target address (or the address of the pointer to it if
	// FlagTargetIndirect, or of a <ptr,bound> if also FlagBounded).
	Target memory.Addr
	// Len is the client-requested length for READ and bounded WRITEs.
	Len uint64
	// Data is inline payload for WRITE/CAS/SEND/ALLOCATE. For
	// FlagDataIndirect it is replaced by an 8-byte server-side pointer.
	Data []byte
	// Mode, CompareMask, SwapMask configure the enhanced CAS. Masks have
	// the same length as Data (<= MaxCASBytes).
	Mode        CASMode
	CompareMask []byte
	SwapMask    []byte
	// FreeList selects the free-list queue pair for ALLOCATE.
	FreeList uint32
	// RedirectTo receives the op's output when FlagRedirect is set.
	RedirectTo memory.Addr
}

// Status is the per-op completion status.
type Status uint8

// Completion statuses. CASFailed and NotExecuted are not transport errors:
// they mean the comparison failed, or a conditional op was skipped because
// its predecessor was unsuccessful.
const (
	StatusOK Status = iota
	StatusCASFailed
	StatusNotExecuted
	StatusNAKAccess   // rkey/bounds/unregistered/null violations
	StatusRNR         // receiver not ready: free list empty / no recv buffer
	StatusUnsupported // op not supported by this NIC deployment
	StatusNotFound    // CHASE terminated on a nil pointer / empty slot without matching
	StatusStepLimit   // CHASE exhausted MaxSteps; Addr carries the resumption cursor
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusCASFailed:
		return "CAS_FAILED"
	case StatusNotExecuted:
		return "NOT_EXECUTED"
	case StatusNAKAccess:
		return "NAK_ACCESS"
	case StatusRNR:
		return "RNR"
	case StatusUnsupported:
		return "UNSUPPORTED"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusStepLimit:
		return "STEP_LIMIT"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// OK reports whether the op executed successfully (for chaining purposes,
// §3.4: NAKs, errors, and failed CASes are unsuccessful).
func (s Status) OK() bool { return s == StatusOK }

// Result is the per-op outcome returned to the client (unless redirected).
type Result struct {
	Status Status
	// Data is the READ payload or the previous value of a CAS target.
	Data []byte
	// Addr is the buffer address returned by ALLOCATE, the address of the
	// matched node for CHASE, or the resumption cursor for SCAN and a
	// step-limited CHASE.
	Addr memory.Addr
}

// Request is one client->server message carrying a chain of ops.
type Request struct {
	Conn uint64 // connection (queue pair) identifier
	Seq  uint64 // per-connection sequence number
	// Epoch counts reuses of this (pooled) request object. The transport
	// stamps each transmission with the sender's current epoch so a
	// receiver can discard a datagram whose payload object was recycled
	// and repopulated while the datagram was in flight (possible only
	// when the fabric drops or delays messages).
	Epoch uint32
	Ops   []Op
}

// Response is the server->client completion message.
type Response struct {
	Conn uint64 // echoes the request's queue pair, for client demux
	Seq  uint64
	// Epoch counts reuses of this (pooled) response object; see
	// Request.Epoch.
	Epoch   uint32
	Results []Result
}
