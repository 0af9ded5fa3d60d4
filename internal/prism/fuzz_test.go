package prism

import (
	"bytes"
	"fmt"
	"testing"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/wire"
)

// The space FuzzProgramExec executes against: region A holds a table of
// fuzzSlots 32-byte slots [tag BE | ptr LE | bound LE | pad] whose first
// fuzzEntries point at 24-byte entries [next LE | key BE | value], which
// also form a linked list from a head cell; one more slot points into
// region B, registered under another key. Free list 1 hands out up to
// four 64-byte buffers under A's key.
const (
	fuzzSlots    = 16
	fuzzEntries  = 12
	fuzzSlotSize = 32
	fuzzHeadOff  = 512  // list head cell
	fuzzEntryOff = 1024 // entry i at fuzzEntryOff + 64*i
	fuzzEntryLen = 24
	fuzzRegionA  = 4096
	fuzzRegionB  = 1024
)

type fuzzWorld struct {
	x      *Executor
	maxBuf uint64 // the largest result buffer an op may ask for
}

func newFuzzWorld(t *testing.T, patchOff uint16, patch []byte) *fuzzWorld {
	space := memory.NewSpace()
	a, err := space.Register(fuzzRegionA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := space.Register(fuzzRegionB)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, fuzzRegionA)
	entry := func(i int) memory.Addr { return a.Base + memory.Addr(fuzzEntryOff+64*i) }
	for i := 0; i < fuzzEntries; i++ {
		slot := img[i*fuzzSlotSize:]
		PutBE64(slot, 0, uint64(i+1))
		PutLE64(slot, 8, uint64(entry(i)))
		PutLE64(slot, 16, fuzzEntryLen)
		e := img[fuzzEntryOff+64*i:]
		if i+1 < fuzzEntries {
			PutLE64(e, 0, uint64(entry(i+1)))
		}
		PutBE64(e, 8, uint64(i))
		PutLE64(e, 16, 0xA0A0A0A0A0A0A0A0+uint64(i))
	}
	PutLE64(img[fuzzEntries*fuzzSlotSize:], 8, uint64(b.Base)) // the cross-key slot
	PutLE64(img[fuzzEntries*fuzzSlotSize:], 16, 16)
	PutLE64(img, fuzzHeadOff, uint64(entry(0)))
	if off := int(patchOff) % fuzzRegionA; len(patch) > 0 {
		copy(img[off:], patch)
	}
	if err := space.Write(a.Key, a.Base, img); err != nil {
		t.Fatal(err)
	}
	if err := space.Write(b.Key, b.Base, bytes.Repeat([]byte{0xBB}, fuzzRegionB)); err != nil {
		t.Fatal(err)
	}
	w := &fuzzWorld{x: NewExecutor(space), maxBuf: max(MaxScanBudget, fuzzRegionA)}
	w.x.FreeLists[1] = alloc.NewFreeList(1, 64, a.Key, space, 4)
	w.x.ReadAlloc = func(n uint64) []byte {
		// A buffer sized from a client's length before the range is checked
		// would be the allocation that kills a server.
		if n > w.maxBuf {
			t.Fatalf("executor asked for a %d-byte result buffer", n)
		}
		return make([]byte, n)
	}
	return w
}

// snapshot copies every region's bytes, by region.
func (w *fuzzWorld) snapshot() map[*memory.Region][]byte {
	m := make(map[*memory.Region][]byte)
	for _, r := range w.x.Space.Regions() {
		b, _ := w.x.Space.Peek(r.Key, r.Base, r.Len)
		m[r] = bytes.Clone(b)
	}
	return m
}

// at returns the n bytes at addr in snap and the key they are registered
// under, if one region holds them all.
func at(snap map[*memory.Region][]byte, addr memory.Addr, n uint64) ([]byte, memory.RKey, bool) {
	for r, b := range snap {
		if r.Contains(addr, n) {
			off := uint64(addr - r.Base)
			return b[off : off+n], r.Key, true
		}
	}
	return nil, 0, false
}

// fuzzRequest encodes ops as one request.
func fuzzRequest(ops ...wire.Op) []byte {
	return wire.AppendRequest(nil, &wire.Request{Conn: 1, Seq: 1, Ops: ops})
}

// FuzzProgramExec decodes a request (DecodeRequestAlias) and executes each
// of its ops on a small space, after patching the space with fuzzed
// bytes: CHASE and SCAN headers (DecodeProgram), indirect and bounded
// targets, masks and free-list ids all come from the input. Whatever the
// input, the executor must not panic or allocate a result buffer sized by
// an unchecked length; memory registered under another key must not
// change, and a NAK must change nothing; a program's steps and bytes stay
// within its bounds; and every op the executor cannot run ends in a NAK
// (or RNR, or UNSUPPORTED for an unknown opcode).
func FuzzProgramExec(f *testing.F) {
	// Seeds address the world above. Its first region starts at 0x1000.
	const base, key, otherKey = 0x1000, 1, 2
	slot := func(i uint64) memory.Addr { return base + memory.Addr(i*fuzzSlotSize) }
	var match [8]byte
	PutBE64(match[:], 0, 5)
	list := AppendProgram(nil, &Program{Kind: ProgChaseList, MaxSteps: 8, MatchOff: 8}, match[:])
	probe := AppendProgram(nil, &Program{Kind: ProgChaseProbe, MaxSteps: 4, MatchOff: 8, NextOff: 8,
		Stride: fuzzSlotSize, StartIdx: 3, NSlots: fuzzSlots}, match[:])
	scan := AppendProgram(nil, &Program{NextOff: 8, Stride: fuzzSlotSize, NSlots: fuzzSlots}, nil)
	var cas [16]byte
	PutBE64(cas[:], 0, 9)
	PutLE64(cas[:], 8, uint64(slot(1)))
	mask := bytes.Repeat([]byte{0xFF}, 8)
	for _, seed := range []struct {
		req      []byte
		patchOff uint16
		patch    []byte
	}{
		{fuzzRequest(Chase(key, base+fuzzHeadOff, list, wire.CASEq, nil, 64)), 0, nil},
		{fuzzRequest(Chase(key, base, probe, wire.CASGt, mask, 24)), 0, nil},
		{fuzzRequest(Scan(key, base, scan, 4096), Scan(key, base, scan, 30)), 0, nil},
		// A slot whose bound no budget can hold.
		{fuzzRequest(Scan(key, base, scan, 4096)), 2*fuzzSlotSize + 16, bytes.Repeat([]byte{0xFF}, 8)},
		{fuzzRequest(ReadBounded(key, slot(2)+8, 64), ReadBounded(key, slot(fuzzEntries)+8, 16),
			ReadIndirect(otherKey, base+fuzzHeadOff, 8), Read(key, base, 1<<40)), 0, nil},
		{fuzzRequest(WriteIndirect(key, slot(3)+8, []byte("payload")),
			CAS(key, slot(4), wire.CASGt, cas[:], append(bytes.Clone(mask), mask...), nil),
			CASIndirectData(key, slot(5), wire.CASEq, slot(6), nil, nil)), 0, nil},
		{fuzzRequest(Allocate(1, []byte("entry")), Allocate(9, nil),
			wire.Op{Code: wire.OpAllocate, Flags: wire.FlagRedirect, FreeList: 1, RKey: key, RedirectTo: slot(7) + 8}), 0, nil},
	} {
		f.Add(seed.req, seed.patchOff, seed.patch)
	}

	f.Fuzz(func(t *testing.T, frame []byte, patchOff uint16, patch []byte) {
		var req wire.Request
		if wire.DecodeRequestAlias(&req, frame) != nil {
			return
		}
		w := newFuzzWorld(t, patchOff, patch)
		for i := range req.Ops {
			op := &req.Ops[i]
			before := w.snapshot()
			var res wire.Result
			var meta OpMeta
			w.x.ExecInto(op, &res, &meta)
			checkFuzzedOp(t, op, &res, &meta, before, w.snapshot())
		}
	})
}

// checkFuzzedOp holds one executed op to FuzzProgramExec's rules.
func checkFuzzedOp(t *testing.T, op *wire.Op, res *wire.Result, meta *OpMeta, before, after map[*memory.Region][]byte) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%v flags=%#x: %s", op.Code, op.Flags, fmt.Sprintf(format, args...))
	}
	known := op.Code == wire.OpRead || op.Code == wire.OpWrite || op.Code == wire.OpCAS ||
		op.Code == wire.OpClassicCAS || op.Code == wire.OpFetchAdd || op.Code == wire.OpAllocate ||
		op.Code == wire.OpChase || op.Code == wire.OpScan
	switch res.Status {
	case wire.StatusOK, wire.StatusCASFailed:
	case wire.StatusNotFound, wire.StatusStepLimit:
		if op.Code != wire.OpChase {
			fail("status %v outside CHASE", res.Status)
		}
	case wire.StatusRNR:
		if op.Code != wire.OpAllocate {
			fail("RNR outside ALLOCATE")
		}
	case wire.StatusUnsupported:
		if known {
			fail("a known opcode is unsupported")
		}
	case wire.StatusNAKAccess:
	default:
		fail("status %v", res.Status)
	}
	if !known && res.Status != wire.StatusUnsupported {
		fail("an unknown opcode ended %v", res.Status)
	}
	nak := res.Status == wire.StatusNAKAccess || res.Status == wire.StatusRNR || res.Status == wire.StatusUnsupported
	if nak && (res.Data != nil || res.Addr != 0) {
		fail("%v carries data or an address", res.Status)
	}

	// Memory: only regions under the op's key change (ALLOCATE's buffer is
	// its free list's, registered under the same key here), and a NAK
	// changes nothing but an ALLOCATE's popped buffer.
	for r, was := range before {
		if now := after[r]; !bytes.Equal(now, was) {
			if r.Key != op.RKey && op.Code != wire.OpAllocate {
				fail("memory under rkey %d changed by an op under rkey %d", r.Key, op.RKey)
			}
			if nak && op.Code != wire.OpAllocate {
				fail("a %v changed memory", res.Status)
			}
		}
	}
	if len(after) != len(before) && op.Code != wire.OpAllocate {
		fail("registered %d regions", len(after)-len(before))
	}

	// Programs: a header DecodeProgram rejects, or one out of bounds, is a
	// NAK; steps and bytes stay within the program's bounds.
	if op.Code != wire.OpChase && op.Code != wire.OpScan {
		if meta.Steps != 0 {
			fail("%d program steps", meta.Steps)
		}
		if res.Status == wire.StatusOK && op.Code == wire.OpRead && !op.Flags.Has(wire.FlagRedirect) {
			if uint64(len(res.Data)) > op.Len {
				fail("read %d bytes of %d", len(res.Data), op.Len)
			}
			if op.Flags&(wire.FlagTargetIndirect|wire.FlagBounded) == 0 {
				if src, k, ok := at(before, op.Target, uint64(len(res.Data))); !ok || k != op.RKey || !bytes.Equal(src, res.Data) {
					fail("a READ returned bytes that are not its target's")
				}
			}
		}
		return
	}
	p, match, err := DecodeProgram(op.Data)
	if err != nil {
		if res.Status != wire.StatusNAKAccess {
			fail("a program DecodeProgram rejects (%v) ended %v", err, res.Status)
		}
		return
	}
	if op.Code == wire.OpChase {
		badMask := len(op.CompareMask) != 0 && len(op.CompareMask) != int(p.MatchLen)
		if (p.MaxSteps == 0 || p.MaxSteps > MaxChaseSteps || p.MatchLen == 0 || p.MatchLen > wire.MaxCASBytes ||
			badMask || p.Kind > ProgChaseProbe) && res.Status != wire.StatusNAKAccess {
			fail("an invalid chase program %+v ended %v", p, res.Status)
		}
		if meta.Steps > int(p.MaxSteps) {
			fail("%d steps over a bound of %d", meta.Steps, p.MaxSteps)
		}
		if res.Status == wire.StatusStepLimit && meta.Steps != int(p.MaxSteps) {
			fail("step limit after %d of %d steps", meta.Steps, p.MaxSteps)
		}
		if res.Status == wire.StatusOK {
			if uint64(len(res.Data)) > op.Len {
				fail("chase returned %d bytes of %d", len(res.Data), op.Len)
			}
			node, k, ok := at(before, res.Addr, uint64(len(res.Data)))
			if !ok || k != op.RKey || !bytes.Equal(node, res.Data) {
				fail("chase returned bytes that are not its matched node's")
			}
			field, _, ok := at(before, res.Addr+memory.Addr(p.MatchOff), uint64(len(match)))
			if !ok || !compareMasked(op.Mode, field, match, op.CompareMask) {
				fail("chase matched a node its predicate rejects")
			}
		}
		return
	}
	if (p.MatchLen != 0 || p.Stride == 0 || p.NSlots == 0 || p.StartIdx > p.NSlots ||
		op.Len == 0 || op.Len > MaxScanBudget) && res.Status != wire.StatusNAKAccess {
		fail("an invalid scan program %+v budget %d ended %v", p, op.Len, res.Status)
	}
	if res.Status != wire.StatusOK {
		return
	}
	if uint64(meta.Steps) > p.NSlots-p.StartIdx {
		fail("%d steps over %d slots", meta.Steps, p.NSlots-p.StartIdx)
	}
	if uint64(len(res.Data)) > op.Len {
		fail("scan packed %d bytes into a budget of %d", len(res.Data), op.Len)
	}
	if cursor := uint64(res.Addr); cursor < p.StartIdx || cursor > p.NSlots {
		fail("cursor %d outside [%d, %d]", cursor, p.StartIdx, p.NSlots)
	}
	if err := ScanEntries(res.Data, func([]byte) error { return nil }); err != nil {
		fail("scan result: %v", err)
	}
}
