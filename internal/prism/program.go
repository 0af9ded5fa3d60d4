package prism

import (
	"encoding/binary"
	"errors"

	"prism/internal/memory"
	"prism/internal/wire"
)

// Verb programs (DESIGN.md §14): bounded, loop-capable server-side programs that
// collapse k dependent round trips into one request. Two shapes:
//
//   - CHASE follows a linked list's pointers up to MaxSteps, evaluating a
//     per-step match predicate with the enhanced-CAS mask machinery
//     (compareMasked), and terminates on match, nil pointer, or the step
//     bound. A step-limited chase returns a resumption cursor so the
//     client can continue where the program stopped.
//   - SCAN walks a slot range in address order, appending every non-empty
//     entry to one length-prefixed result buffer until a byte budget or
//     the range end, returning the next slot index as a cursor.
//
// Both are single wire ops: the program rides the op's Data field as a
// fixed header followed by the match operand, the predicate reuses
// Mode/CompareMask, and the budget rides Len. Each program executes
// under the same per-primitive atomicity as every other verb — the loop
// runs server-side without interleaving, which is strictly stronger than
// the k-round-trip client loop it replaces (§3.5 discussion in
// DESIGN.md §14).

// ProgChaseList, the one CHASE kind, follows an 8-byte little-endian next
// pointer at NextOff within each node; Target addresses the head pointer
// cell. Any other kind is refused.
const ProgChaseList = 0

// Program bounds. MaxChaseSteps caps the loop of a single CHASE op;
// MaxScanBudget caps the result bytes of a single SCAN op. Both keep a
// program's NIC occupancy bounded (DESIGN.md §14): longer walks resume by cursor.
const (
	MaxChaseSteps = 64
	MaxScanBudget = 1 << 16
)

// ProgHeaderLen is the fixed encoded size of a Program, preceding the
// match operand in the op's Data field.
const ProgHeaderLen = 32

// Program is the decoded verb-program header.
type Program struct {
	Kind     uint8  // ProgChaseList (CHASE); unused by SCAN
	MaxSteps uint8  // loop bound, 1..MaxChaseSteps (CHASE); unused by SCAN
	MatchOff uint16 // offset of the matched field within a node (CHASE)
	MatchLen uint16 // width of the match operand (0 for SCAN)
	NextOff  uint16 // offset of the next pointer (CHASE) / <ptr,bound> (SCAN)
	Stride   uint64 // slot size in bytes (SCAN)
	StartIdx uint64 // starting slot index (SCAN)
	NSlots   uint64 // end of the slot range (SCAN)
}

// AppendProgram appends the canonical header encoding of p, then the
// match operand, to b (little-endian throughout, like every pointer
// field on the wire).
func AppendProgram(b []byte, p *Program, match []byte) []byte {
	b = append(b, p.Kind, p.MaxSteps)
	b = binary.LittleEndian.AppendUint16(b, p.MatchOff)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(match)))
	b = binary.LittleEndian.AppendUint16(b, p.NextOff)
	b = binary.LittleEndian.AppendUint64(b, p.Stride)
	b = binary.LittleEndian.AppendUint64(b, p.StartIdx)
	b = binary.LittleEndian.AppendUint64(b, p.NSlots)
	return append(b, match...)
}

// parseProgram decodes a program header and its trailing match operand
// from an op's Data field. The match slice aliases data.
func parseProgram(data []byte) (Program, []byte, error) {
	var p Program
	if len(data) < ProgHeaderLen {
		return p, nil, errors.New("prism: short program header")
	}
	p.Kind = data[0]
	p.MaxSteps = data[1]
	p.MatchOff = binary.LittleEndian.Uint16(data[2:])
	p.MatchLen = binary.LittleEndian.Uint16(data[4:])
	p.NextOff = binary.LittleEndian.Uint16(data[6:])
	p.Stride = binary.LittleEndian.Uint64(data[8:])
	p.StartIdx = binary.LittleEndian.Uint64(data[16:])
	p.NSlots = binary.LittleEndian.Uint64(data[24:])
	match := data[ProgHeaderLen:]
	if len(match) != int(p.MatchLen) {
		return p, nil, errors.New("prism: program match operand length mismatch")
	}
	return p, match, nil
}

// DecodeProgram decodes a program header and its trailing match operand
// from an op's Data field — the tooling-side twin of AppendProgram. The
// match slice aliases data.
func DecodeProgram(data []byte) (Program, []byte, error) {
	return parseProgram(data)
}

// Chase builds a CHASE op over an encoded program (AppendProgram). The
// predicate compares the node field at MatchOff against the program's
// match operand under mode and mask (nil mask = all bits); maxLen caps
// the payload returned from the matched node.
func Chase(key memory.RKey, target memory.Addr, prog []byte, mode wire.CASMode, mask []byte, maxLen uint64) wire.Op {
	return wire.Op{
		Code:        wire.OpChase,
		RKey:        key,
		Target:      target,
		Len:         maxLen,
		Data:        prog,
		Mode:        mode,
		CompareMask: mask,
	}
}

// Scan builds a SCAN op over an encoded program: slots
// [StartIdx, NSlots) of Stride bytes from base, the <ptr,bound> at
// NextOff within each slot, budget result bytes.
func Scan(key memory.RKey, base memory.Addr, prog []byte, budget uint64) wire.Op {
	return wire.Op{Code: wire.OpScan, RKey: key, Target: base, Len: budget, Data: prog}
}

// execChase runs the bounded pointer loop entirely server-side.
// Per step it performs one pointer fetch (an indirection, like a bounded
// READ's) plus one match-field access, so the deployment cost models
// charge it per executed step through OpMeta (Steps, HostAccesses,
// Indirections) — a program is never cheaper than the honest sum of its
// memory traffic, only cheaper in round trips.
func (x *Executor) execChase(op *wire.Op, meta *OpMeta) (wire.Result, error) {
	p, match, err := parseProgram(op.Data)
	if err != nil {
		return wire.Result{}, err
	}
	if p.MaxSteps == 0 || p.MaxSteps > MaxChaseSteps {
		return wire.Result{}, errors.New("prism: chase step bound out of range")
	}
	if p.MatchLen == 0 || p.MatchLen > wire.MaxCASBytes {
		return wire.Result{}, errors.New("prism: chase match width out of range")
	}
	if len(op.CompareMask) != 0 && len(op.CompareMask) != int(p.MatchLen) {
		return wire.Result{}, errors.New("prism: chase mask width mismatch")
	}
	if p.Kind != ProgChaseList {
		return wire.Result{}, errors.New("prism: unknown program kind")
	}
	return x.chaseList(op, &p, match, meta)
}

// chaseList: cur addresses a pointer cell; each step loads the pointer,
// tests the pointee's match field, and either returns the node or
// advances cur to the node's next-pointer cell.
func (x *Executor) chaseList(op *wire.Op, p *Program, match []byte, meta *OpMeta) (wire.Result, error) {
	cur := op.Target
	for step := uint8(0); step < p.MaxSteps; step++ {
		ptr, err := x.Space.ReadU64(op.RKey, cur)
		if err != nil {
			return wire.Result{}, err
		}
		meta.Steps++
		meta.HostAccesses++
		meta.Indirections++
		if ptr == 0 {
			return wire.Result{Status: wire.StatusNotFound, Addr: cur}, nil
		}
		node := memory.Addr(ptr)
		field, err := x.Space.Peek(op.RKey, node+memory.Addr(p.MatchOff), uint64(p.MatchLen))
		if err != nil {
			return wire.Result{}, err
		}
		meta.HostAccesses++
		if compareMasked(op.Mode, field, match, op.CompareMask) {
			data, err := x.chasePayload(op, node)
			if err != nil {
				return wire.Result{}, err
			}
			meta.HostAccesses++
			return wire.Result{Status: wire.StatusOK, Addr: node, Data: data}, nil
		}
		cur = node + memory.Addr(p.NextOff)
	}
	// Step bound exhausted: Addr is the pointer cell to resume from.
	return wire.Result{Status: wire.StatusStepLimit, Addr: cur}, nil
}

// chasePayload copies op.Len bytes of the matched node into a response
// buffer (ReadAlloc under a transport, like execRead's payload), checking
// the range before carving it.
func (x *Executor) chasePayload(op *wire.Op, node memory.Addr) ([]byte, error) {
	src, err := x.Space.Peek(op.RKey, node, op.Len)
	if err != nil {
		return nil, err
	}
	data := x.resultAlloc(op.Len)
	copy(data, src)
	return data, nil
}

// execScan walks slots [StartIdx, NSlots) in order, packing every
// non-empty entry as [len u32 | entry bytes] into one budget-bounded
// result buffer. Addr returns the next unvisited slot index — equal to
// NSlots when the range completed — so a client resumes by re-issuing
// with StartIdx = cursor. Always StatusOK, even for an empty window.
func (x *Executor) execScan(op *wire.Op, meta *OpMeta) (wire.Result, error) {
	p, _, err := parseProgram(op.Data)
	if err != nil {
		return wire.Result{}, err
	}
	if p.MatchLen != 0 {
		return wire.Result{}, errors.New("prism: scan takes no match operand")
	}
	if p.Stride == 0 || p.NSlots == 0 || p.StartIdx > p.NSlots {
		return wire.Result{}, errors.New("prism: bad scan geometry")
	}
	budget := op.Len
	if budget == 0 || budget > MaxScanBudget {
		return wire.Result{}, errors.New("prism: scan budget out of range")
	}
	// One budget-sized carving, sliced down to the packed length: the scan
	// cannot know its result size before walking. The live server trims
	// its staged frame to the packed length afterwards.
	out := x.resultAlloc(budget)
	used := uint64(0)
	idx := p.StartIdx
	for ; idx < p.NSlots; idx++ {
		slot := op.Target + memory.Addr(idx*p.Stride+uint64(p.NextOff))
		bp, err := x.Space.ReadBoundedPtr(op.RKey, slot)
		if err != nil {
			return wire.Result{}, err
		}
		meta.Steps++
		meta.HostAccesses++
		meta.Indirections++
		if bp.Ptr == 0 {
			continue
		}
		// A bound is memory a client can write, so it is checked against
		// the budget before 4+Bound could wrap.
		if bp.Bound > budget || used+4+bp.Bound > budget {
			if used == 0 {
				return wire.Result{}, errors.New("prism: scan entry exceeds byte budget")
			}
			break // cursor = this idx; the entry goes in the next window
		}
		need := 4 + bp.Bound
		binary.LittleEndian.PutUint32(out[used:], uint32(bp.Bound))
		if err := x.Space.ReadInto(out[used+4:used+need], op.RKey, bp.Ptr); err != nil {
			return wire.Result{}, err
		}
		meta.HostAccesses++
		used += need
	}
	return wire.Result{Status: wire.StatusOK, Addr: memory.Addr(idx), Data: out[:used]}, nil
}

// ScanEntries iterates the packed [len u32 | bytes] records of a SCAN
// result, calling visit for each entry view (valid only during the
// call). It returns an error on a torn record.
func ScanEntries(data []byte, visit func(entry []byte) error) error {
	for len(data) > 0 {
		if len(data) < 4 {
			return errors.New("prism: torn scan record")
		}
		n := binary.LittleEndian.Uint32(data)
		if uint64(len(data)) < 4+uint64(n) {
			return errors.New("prism: torn scan record")
		}
		if err := visit(data[4 : 4+n]); err != nil {
			return err
		}
		data = data[4+n:]
	}
	return nil
}
