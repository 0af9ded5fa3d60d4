package prism

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/wire"
)

// testEnv builds an executor with one data region and one free list.
func testEnv(t *testing.T) (*Executor, *memory.Region) {
	t.Helper()
	space := memory.NewSpace()
	region, err := space.Register(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	return NewExecutor(space), region
}

func mustOK(t *testing.T, res wire.Result) wire.Result {
	t.Helper()
	if res.Status != wire.StatusOK {
		t.Fatalf("status = %v, want OK", res.Status)
	}
	return res
}

func TestDirectReadWrite(t *testing.T) {
	x, r := testEnv(t)
	op := Write(r.Key, r.Base+64, []byte("hello"))
	mustOK(t, first(x.Exec(&op)))
	rd := Read(r.Key, r.Base+64, 5)
	res := mustOK(t, first(x.Exec(&rd)))
	if string(res.Data) != "hello" {
		t.Fatalf("read %q", res.Data)
	}
}

func first(r wire.Result, _ OpMeta) wire.Result { return r }

func TestIndirectRead(t *testing.T) {
	x, r := testEnv(t)
	// value at base+256, pointer to it at base+0
	val := []byte("indirect value")
	w := Write(r.Key, r.Base+256, val)
	mustOK(t, first(x.Exec(&w)))
	if err := x.Space.WriteU64(r.Key, r.Base, uint64(r.Base+256)); err != nil {
		t.Fatal(err)
	}
	rd := ReadIndirect(r.Key, r.Base, uint64(len(val)))
	res, meta := x.Exec(&rd)
	mustOK(t, res)
	if string(res.Data) != string(val) {
		t.Fatalf("read %q", res.Data)
	}
	if meta.Indirections != 1 || meta.HostAccesses != 2 {
		t.Fatalf("meta = %+v", meta)
	}
	if !meta.PRISMOnly {
		t.Fatal("indirect read not flagged as PRISM-only")
	}
}

func TestBoundedReadClampsLength(t *testing.T) {
	x, r := testEnv(t)
	w := Write(r.Key, r.Base+256, []byte("0123456789"))
	mustOK(t, first(x.Exec(&w)))
	if err := x.Space.WriteBoundedPtr(r.Key, r.Base, memory.BoundedPtr{Ptr: r.Base + 256, Bound: 4}); err != nil {
		t.Fatal(err)
	}
	rd := ReadBounded(r.Key, r.Base, 512) // client over-asks; bound clamps
	res := mustOK(t, first(x.Exec(&rd)))
	if string(res.Data) != "0123" {
		t.Fatalf("bounded read %q", res.Data)
	}
	// A shorter client length wins over the bound.
	rd2 := ReadBounded(r.Key, r.Base, 2)
	res2 := mustOK(t, first(x.Exec(&rd2)))
	if string(res2.Data) != "01" {
		t.Fatalf("short bounded read %q", res2.Data)
	}
}

func TestIndirectReadNullPointerNAK(t *testing.T) {
	x, r := testEnv(t)
	rd := ReadIndirect(r.Key, r.Base+8, 8) // pointer cell is zero
	res, _ := x.Exec(&rd)
	if res.Status != wire.StatusNAKAccess {
		t.Fatalf("status = %v, want NAK", res.Status)
	}
}

func TestIndirectReadWrongRKeyTarget(t *testing.T) {
	x, r := testEnv(t)
	other, err := x.Space.Register(256)
	if err != nil {
		t.Fatal(err)
	}
	// Pointer in r targets memory in another region (different rkey):
	// rejected per §3.1's protection rule.
	if err := x.Space.WriteU64(r.Key, r.Base, uint64(other.Base)); err != nil {
		t.Fatal(err)
	}
	rd := ReadIndirect(r.Key, r.Base, 8)
	res, _ := x.Exec(&rd)
	if res.Status != wire.StatusNAKAccess {
		t.Fatalf("cross-region indirect read: %v", res.Status)
	}
}

func TestRedirectedRead(t *testing.T) {
	x, r := testEnv(t)
	w := Write(r.Key, r.Base+256, []byte("payload"))
	mustOK(t, first(x.Exec(&w)))
	rd := RedirectTo(Read(r.Key, r.Base+256, 7), r.Key, r.Base+512)
	res := mustOK(t, first(x.Exec(&rd)))
	if len(res.Data) != 0 {
		t.Fatalf("redirected read returned data %q", res.Data)
	}
	got, _ := x.Space.Read(r.Key, r.Base+512, 7)
	if string(got) != "payload" {
		t.Fatalf("redirect target holds %q", got)
	}
}

func TestWriteIndirect(t *testing.T) {
	x, r := testEnv(t)
	if err := x.Space.WriteU64(r.Key, r.Base, uint64(r.Base+256)); err != nil {
		t.Fatal(err)
	}
	w := WriteIndirect(r.Key, r.Base, []byte("via ptr"))
	mustOK(t, first(x.Exec(&w)))
	got, _ := x.Space.Read(r.Key, r.Base+256, 7)
	if string(got) != "via ptr" {
		t.Fatalf("indirect write landed %q", got)
	}
}

func TestWriteDataIndirect(t *testing.T) {
	x, r := testEnv(t)
	src := Write(r.Key, r.Base+256, []byte("source bytes"))
	mustOK(t, first(x.Exec(&src)))
	var ptr [8]byte
	binary.LittleEndian.PutUint64(ptr[:], uint64(r.Base+256))
	op := wire.Op{
		Code: wire.OpWrite, RKey: r.Key, Target: r.Base + 512,
		Data: ptr[:], Len: 12, Flags: wire.FlagDataIndirect,
	}
	mustOK(t, first(x.Exec(&op)))
	got, _ := x.Space.Read(r.Key, r.Base+512, 12)
	if string(got) != "source bytes" {
		t.Fatalf("data-indirect write landed %q", got)
	}
}

func TestAllocatePopsFIFOAndWrites(t *testing.T) {
	x, r := testEnv(t)
	fl := alloc.NewFreeList(1, 64, r.Key, nil, 0)
	fl.Post(r.Base + 1024)
	fl.Post(r.Base + 2048)
	x.FreeLists[1] = fl
	op := Allocate(1, []byte("first"))
	res := mustOK(t, first(x.Exec(&op)))
	if res.Addr != r.Base+1024 {
		t.Fatalf("allocated %#x", res.Addr)
	}
	got, _ := x.Space.Read(r.Key, res.Addr, 5)
	if string(got) != "first" {
		t.Fatalf("buffer holds %q", got)
	}
	op2 := Allocate(1, []byte("second"))
	res2 := mustOK(t, first(x.Exec(&op2)))
	if res2.Addr != r.Base+2048 {
		t.Fatalf("second allocation %#x", res2.Addr)
	}
}

func TestAllocateEmptyRNR(t *testing.T) {
	x, r := testEnv(t)
	x.FreeLists[1] = alloc.NewFreeList(1, 64, r.Key, nil, 0)
	op := Allocate(1, []byte("x"))
	res, _ := x.Exec(&op)
	if res.Status != wire.StatusRNR {
		t.Fatalf("empty free list: %v", res.Status)
	}
}

// A self-provisioning list answers ALLOCATE out of slabs it carves in the
// executor's space, and RNR comes at exactly its cap: with cap buffers
// outstanding and none returned, never before.
func TestAllocateCarvesUntilCapThenRNR(t *testing.T) {
	const limit = 5
	x, r := testEnv(t)
	fl := alloc.NewFreeList(1, 64, r.Key, x.Space, limit)
	x.FreeLists[1] = fl
	seen := make(map[memory.Addr]bool)
	for i := 0; i < limit; i++ {
		op := Allocate(1, []byte{byte(i)})
		res := mustOK(t, first(x.Exec(&op)))
		if seen[res.Addr] || r.Contains(res.Addr, 64) {
			t.Fatalf("allocate %d returned %#x: reused or outside a carved slab", i, res.Addr)
		}
		seen[res.Addr] = true
		if got, _ := x.Space.Read(r.Key, res.Addr, 1); got[0] != byte(i) {
			t.Fatalf("allocate %d: buffer holds %v", i, got)
		}
	}
	op := Allocate(1, []byte("x"))
	if res, _ := x.Exec(&op); res.Status != wire.StatusRNR {
		t.Fatalf("allocate beyond the cap: %v, want RNR", res.Status)
	}
	fl.Post(r.Base + 1024) // a returned buffer ends the RNR
	if res, _ := x.Exec(&op); res.Status != wire.StatusOK || res.Addr != r.Base+1024 {
		t.Fatalf("allocate after a buffer returned: %v %#x", res.Status, res.Addr)
	}
}

func TestAllocateOversizedRejectedWithoutPopping(t *testing.T) {
	x, r := testEnv(t)
	fl := alloc.NewFreeList(1, 4, r.Key, nil, 0)
	fl.Post(r.Base + 1024)
	x.FreeLists[1] = fl
	op := Allocate(1, []byte("too big for buffer"))
	res, _ := x.Exec(&op)
	if res.Status != wire.StatusNAKAccess {
		t.Fatalf("oversized allocate: %v", res.Status)
	}
	if fl.Len() != 1 {
		t.Fatal("oversized allocate consumed a buffer")
	}
}

func TestAllocateRedirectWritesAddress(t *testing.T) {
	x, r := testEnv(t)
	fl := alloc.NewFreeList(1, 64, r.Key, nil, 0)
	fl.Post(r.Base + 1024)
	x.FreeLists[1] = fl
	op := RedirectTo(Allocate(1, []byte("v")), r.Key, r.Base+128)
	res := mustOK(t, first(x.Exec(&op)))
	if res.Addr != r.Base+1024 {
		t.Fatalf("allocate result %#x", res.Addr)
	}
	got, _ := x.Space.ReadU64(r.Key, r.Base+128)
	if memory.Addr(got) != r.Base+1024 {
		t.Fatalf("redirect target holds %#x", got)
	}
}

func TestUnknownFreeList(t *testing.T) {
	x, _ := testEnv(t)
	op := Allocate(99, []byte("x"))
	res, _ := x.Exec(&op)
	if res.Status != wire.StatusNAKAccess {
		t.Fatalf("unknown free list: %v", res.Status)
	}
}

// --- Enhanced CAS ---

func TestCASEqualityFullWidth(t *testing.T) {
	x, r := testEnv(t)
	cur := []byte("AAAABBBB")
	w := Write(r.Key, r.Base, cur)
	mustOK(t, first(x.Exec(&w)))
	// Matching compare swaps.
	op := CAS(r.Key, r.Base, wire.CASEq, []byte("AAAABBBB"), nil, nil)
	res := mustOK(t, first(x.Exec(&op)))
	if !bytes.Equal(res.Data, cur) {
		t.Fatalf("previous value %q", res.Data)
	}
	// Swap installed data.
	got, _ := x.Space.Read(r.Key, r.Base, 8)
	if !bytes.Equal(got, []byte("AAAABBBB")) {
		t.Fatalf("target after CAS: %q", got)
	}
	// Mismatch fails and leaves target unchanged, returning the value.
	op2 := CAS(r.Key, r.Base, wire.CASEq, []byte("XXXXYYYY"), nil, nil)
	res2, _ := x.Exec(&op2)
	if res2.Status != wire.StatusCASFailed {
		t.Fatalf("mismatched CAS: %v", res2.Status)
	}
	if !bytes.Equal(res2.Data, cur) {
		t.Fatalf("failed CAS previous value %q", res2.Data)
	}
}

func TestCASSeparateCompareAndSwapFields(t *testing.T) {
	// Compare one field, swap another (§3.3): target = [tag(8)|addr(8)].
	x, r := testEnv(t)
	target := make([]byte, 16)
	PutBE64(target, 0, 5)      // tag = 5
	PutBE64(target, 8, 0x1111) // addr
	w := Write(r.Key, r.Base, target)
	mustOK(t, first(x.Exec(&w)))

	data := make([]byte, 16)
	PutBE64(data, 0, 7)      // new tag
	PutBE64(data, 8, 0x2222) // new addr
	// GT on the tag field, swap both fields.
	op := CAS(r.Key, r.Base, wire.CASGt, data, FieldMask(16, 0, 8), FullMask(16))
	res := mustOK(t, first(x.Exec(&op)))
	if BE64(res.Data, 0) != 5 || BE64(res.Data, 8) != 0x1111 {
		t.Fatalf("previous value tag=%d addr=%#x", BE64(res.Data, 0), BE64(res.Data, 8))
	}
	got, _ := x.Space.Read(r.Key, r.Base, 16)
	if BE64(got, 0) != 7 || BE64(got, 8) != 0x2222 {
		t.Fatalf("after CAS tag=%d addr=%#x", BE64(got, 0), BE64(got, 8))
	}

	// A smaller tag must fail (GT), leaving the target untouched.
	data2 := make([]byte, 16)
	PutBE64(data2, 0, 6)
	PutBE64(data2, 8, 0x3333)
	op2 := CAS(r.Key, r.Base, wire.CASGt, data2, FieldMask(16, 0, 8), FullMask(16))
	res2, _ := x.Exec(&op2)
	if res2.Status != wire.StatusCASFailed {
		t.Fatalf("stale tag CAS: %v", res2.Status)
	}
	got2, _ := x.Space.Read(r.Key, r.Base, 16)
	if BE64(got2, 0) != 7 || BE64(got2, 8) != 0x2222 {
		t.Fatal("failed CAS modified target")
	}
}

func TestCASPartialSwapPreservesUnmaskedBytes(t *testing.T) {
	x, r := testEnv(t)
	target := make([]byte, 16)
	PutBE64(target, 0, 1)
	PutBE64(target, 8, 0xAAAA)
	w := Write(r.Key, r.Base, target)
	mustOK(t, first(x.Exec(&w)))
	data := make([]byte, 16)
	PutBE64(data, 0, 9)
	PutBE64(data, 8, 0xBBBB)
	// Swap only the tag field; addr must survive.
	op := CAS(r.Key, r.Base, wire.CASGt, data, FieldMask(16, 0, 8), FieldMask(16, 0, 8))
	mustOK(t, first(x.Exec(&op)))
	got, _ := x.Space.Read(r.Key, r.Base, 16)
	if BE64(got, 0) != 9 || BE64(got, 8) != 0xAAAA {
		t.Fatalf("after partial swap tag=%d addr=%#x", BE64(got, 0), BE64(got, 8))
	}
}

func TestCASLessThan(t *testing.T) {
	x, r := testEnv(t)
	target := make([]byte, 8)
	PutBE64(target, 0, 100)
	w := Write(r.Key, r.Base, target)
	mustOK(t, first(x.Exec(&w)))
	data := make([]byte, 8)
	PutBE64(data, 0, 50)
	op := CAS(r.Key, r.Base, wire.CASLt, data, nil, nil)
	mustOK(t, first(x.Exec(&op)))
	got, _ := x.Space.Read(r.Key, r.Base, 8)
	if BE64(got, 0) != 50 {
		t.Fatalf("after LT CAS: %d", BE64(got, 0))
	}
}

func TestCASIndirectData(t *testing.T) {
	// The PRISM-RS pattern: operand lives in a server-side tmp buffer.
	x, r := testEnv(t)
	target := make([]byte, 16)
	PutBE64(target, 0, 3)
	PutBE64(target, 8, 0x1111)
	w := Write(r.Key, r.Base, target)
	mustOK(t, first(x.Exec(&w)))

	tmpAddr := r.Base + 512
	tmp := make([]byte, 16)
	PutBE64(tmp, 0, 4)
	PutBE64(tmp, 8, 0x2222)
	w2 := Write(r.Key, tmpAddr, tmp)
	mustOK(t, first(x.Exec(&w2)))

	op := CASIndirectData(r.Key, r.Base, wire.CASGt, tmpAddr, FieldMask(16, 0, 8), FullMask(16))
	res, meta := x.Exec(&op)
	mustOK(t, res)
	if meta.Indirections != 1 {
		t.Fatalf("meta %+v", meta)
	}
	got, _ := x.Space.Read(r.Key, r.Base, 16)
	if BE64(got, 0) != 4 || BE64(got, 8) != 0x2222 {
		t.Fatalf("after indirect-data CAS tag=%d addr=%#x", BE64(got, 0), BE64(got, 8))
	}
}

func TestCASIndirectTarget(t *testing.T) {
	x, r := testEnv(t)
	realTarget := r.Base + 256
	if err := x.Space.WriteU64(r.Key, r.Base, uint64(realTarget)); err != nil {
		t.Fatal(err)
	}
	old := make([]byte, 8)
	PutBE64(old, 0, 10)
	w := Write(r.Key, realTarget, old)
	mustOK(t, first(x.Exec(&w)))
	data := make([]byte, 8)
	PutBE64(data, 0, 11)
	op := CAS(r.Key, r.Base, wire.CASGt, data, nil, nil)
	op.Flags |= wire.FlagTargetIndirect
	mustOK(t, first(x.Exec(&op)))
	got, _ := x.Space.Read(r.Key, realTarget, 8)
	if BE64(got, 0) != 11 {
		t.Fatalf("indirect-target CAS result %d", BE64(got, 0))
	}
}

func TestCASWidthLimit(t *testing.T) {
	x, r := testEnv(t)
	data := make([]byte, 40)
	op := CAS(r.Key, r.Base, wire.CASEq, data, nil, nil)
	res, _ := x.Exec(&op)
	if res.Status != wire.StatusNAKAccess {
		t.Fatalf("40-byte CAS: %v", res.Status)
	}
}

func TestCASClassicSubsetDetection(t *testing.T) {
	x, r := testEnv(t)
	// 8-byte EQ full-mask CAS is the classic subset.
	w := Write(r.Key, r.Base, make([]byte, 8))
	mustOK(t, first(x.Exec(&w)))
	op := CAS(r.Key, r.Base, wire.CASEq, make([]byte, 8), nil, nil)
	_, meta := x.Exec(&op)
	if meta.PRISMOnly {
		t.Fatal("classic-subset CAS flagged PRISM-only")
	}
	op2 := CAS(r.Key, r.Base, wire.CASGt, make([]byte, 8), nil, nil)
	_, meta2 := x.Exec(&op2)
	if !meta2.PRISMOnly {
		t.Fatal("GT CAS not flagged PRISM-only")
	}
	op3 := CAS(r.Key, r.Base, wire.CASEq, make([]byte, 16), nil, nil)
	if _, meta3 := x.Exec(&op3); !meta3.PRISMOnly {
		t.Fatal("16-byte CAS not flagged PRISM-only")
	}
}

// TestCASEmptyMasksAreAbsent: an empty mask that is not nil selects all
// bits, as an absent one does; the wire cannot tell the two apart. Such a
// CAS used to index past the empty mask and panic.
func TestCASEmptyMasksAreAbsent(t *testing.T) {
	x, r := testEnv(t)
	w := Write(r.Key, r.Base, []byte{0, 0, 0, 0, 0, 0, 0, 7})
	mustOK(t, first(x.Exec(&w)))
	op := CAS(r.Key, r.Base, wire.CASGt, []byte{0, 0, 0, 0, 0, 0, 0, 9}, []byte{}, []byte{})
	mustOK(t, first(x.Exec(&op)))
	if v, _ := x.Space.ReadU64(r.Key, r.Base); v != 9<<56 {
		t.Fatalf("cell = %#x after a full swap, want 9<<56", v)
	}
}

func TestClassicCAS(t *testing.T) {
	x, r := testEnv(t)
	if err := x.Space.WriteU64(r.Key, r.Base, 5); err != nil {
		t.Fatal(err)
	}
	op := ClassicCAS(r.Key, r.Base, 5, 9)
	res, meta := x.Exec(&op)
	mustOK(t, res)
	if meta.PRISMOnly {
		t.Fatal("classic CAS flagged PRISM-only")
	}
	if binary.LittleEndian.Uint64(res.Data) != 5 {
		t.Fatalf("previous = %d", binary.LittleEndian.Uint64(res.Data))
	}
	v, _ := x.Space.ReadU64(r.Key, r.Base)
	if v != 9 {
		t.Fatalf("after classic CAS: %d", v)
	}
	// Expect mismatch fails.
	op2 := ClassicCAS(r.Key, r.Base, 5, 1)
	res2, _ := x.Exec(&op2)
	if res2.Status != wire.StatusCASFailed {
		t.Fatalf("mismatch: %v", res2.Status)
	}
	if v, _ := x.Space.ReadU64(r.Key, r.Base); v != 9 {
		t.Fatal("failed classic CAS modified target")
	}
}

func TestFetchAdd(t *testing.T) {
	x, r := testEnv(t)
	if err := x.Space.WriteU64(r.Key, r.Base, 41); err != nil {
		t.Fatal(err)
	}
	var add [8]byte
	binary.LittleEndian.PutUint64(add[:], 1)
	op := wire.Op{Code: wire.OpFetchAdd, RKey: r.Key, Target: r.Base, Data: add[:]}
	res := mustOK(t, first(x.Exec(&op)))
	if binary.LittleEndian.Uint64(res.Data) != 41 {
		t.Fatalf("fetch-add previous %d", binary.LittleEndian.Uint64(res.Data))
	}
	if v, _ := x.Space.ReadU64(r.Key, r.Base); v != 42 {
		t.Fatalf("after fetch-add: %d", v)
	}
}

func TestUnsupportedOpcode(t *testing.T) {
	x, _ := testEnv(t)
	op := wire.Op{Code: wire.OpCode(99)}
	res, _ := x.Exec(&op)
	if res.Status != wire.StatusUnsupported {
		t.Fatalf("bogus opcode: %v", res.Status)
	}
}

// Property: a GT CAS sequence with strictly increasing tags always applies,
// and the stored tag equals the max tag ever offered, regardless of order.
func TestQuickCASGtMonotonic(t *testing.T) {
	f := func(tags []uint16) bool {
		if len(tags) == 0 {
			return true
		}
		space := memory.NewSpace()
		r, _ := space.Register(64)
		x := NewExecutor(space)
		zero := make([]byte, 8)
		w := Write(r.Key, r.Base, zero)
		x.Exec(&w)
		var max uint64
		for _, tg := range tags {
			v := uint64(tg) + 1
			data := make([]byte, 8)
			PutBE64(data, 0, v)
			op := CAS(r.Key, r.Base, wire.CASGt, data, nil, nil)
			res, _ := x.Exec(&op)
			shouldApply := v > max
			if shouldApply != (res.Status == wire.StatusOK) {
				return false
			}
			if v > max {
				max = v
			}
		}
		got, _ := space.Read(r.Key, r.Base, 8)
		return BE64(got, 0) == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// Property: masked swap never alters bytes outside the swap mask, and the
// comparison only depends on bytes inside the compare mask.
func TestQuickMaskAlgebra(t *testing.T) {
	f := func(cur, data [16]byte, cmaskBits, smaskBits uint16) bool {
		cmask := make([]byte, 16)
		smask := make([]byte, 16)
		for i := 0; i < 16; i++ {
			if cmaskBits&(1<<(i%16)) != 0 && i < 16 {
				cmask[i] = 0xFF
			}
			if smaskBits&(1<<(i%16)) != 0 {
				smask[i] = 0xFF
			}
		}
		space := memory.NewSpace()
		r, _ := space.Register(64)
		x := NewExecutor(space)
		w := Write(r.Key, r.Base, cur[:])
		x.Exec(&w)
		op := CAS(r.Key, r.Base, wire.CASEq, data[:], cmask, smask)
		res, _ := x.Exec(&op)
		after, _ := space.Read(r.Key, r.Base, 16)
		if res.Status == wire.StatusOK {
			for i := 0; i < 16; i++ {
				want := cur[i]
				if smask[i] == 0xFF {
					want = data[i]
				}
				if after[i] != want {
					return false
				}
			}
		} else {
			if !bytes.Equal(after, cur[:]) {
				return false
			}
		}
		// Comparison result must equal manual masked equality.
		eq := true
		for i := 0; i < 16; i++ {
			if cur[i]&cmask[i] != data[i]&cmask[i] {
				eq = false
			}
		}
		return eq == (res.Status == wire.StatusOK)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBoundedClampsLength(t *testing.T) {
	x, r := testEnv(t)
	// Target is a <ptr,bound> with a 4-byte bound; an 8-byte write clamps.
	if err := x.Space.WriteBoundedPtr(r.Key, r.Base, memory.BoundedPtr{Ptr: r.Base + 256, Bound: 4}); err != nil {
		t.Fatal(err)
	}
	marker := Write(r.Key, r.Base+256, []byte("ZZZZZZZZ"))
	mustOK(t, first(x.Exec(&marker)))
	op := Write(r.Key, r.Base, []byte("abcdefgh"))
	op.Flags |= wire.FlagBounded
	mustOK(t, first(x.Exec(&op)))
	got, _ := x.Space.Read(r.Key, r.Base+256, 8)
	if string(got) != "abcdZZZZ" {
		t.Fatalf("bounded write result %q", got)
	}
}

func TestCASIndirectTargetAndData(t *testing.T) {
	// Both arguments indirect at once (§3.3 allows either or both).
	x, r := testEnv(t)
	realTarget := r.Base + 256
	seed := make([]byte, 8)
	PutBE64(seed, 0, 5)
	w := Write(r.Key, realTarget, seed)
	mustOK(t, first(x.Exec(&w)))
	if err := x.Space.WriteU64(r.Key, r.Base, uint64(realTarget)); err != nil {
		t.Fatal(err)
	}
	dataSrc := r.Base + 512
	data := make([]byte, 8)
	PutBE64(data, 0, 9)
	w2 := Write(r.Key, dataSrc, data)
	mustOK(t, first(x.Exec(&w2)))

	op := CASIndirectData(r.Key, r.Base, wire.CASGt, dataSrc, nil, nil)
	op.Flags |= wire.FlagTargetIndirect
	res, meta := x.Exec(&op)
	mustOK(t, res)
	if meta.Indirections != 2 {
		t.Fatalf("indirections = %d", meta.Indirections)
	}
	got, _ := x.Space.Read(r.Key, realTarget, 8)
	if BE64(got, 0) != 9 {
		t.Fatalf("double-indirect CAS result %d", BE64(got, 0))
	}
}

func TestFetchAddIndirect(t *testing.T) {
	x, r := testEnv(t)
	if err := x.Space.WriteU64(r.Key, r.Base, uint64(r.Base+128)); err != nil {
		t.Fatal(err)
	}
	if err := x.Space.WriteU64(r.Key, r.Base+128, 100); err != nil {
		t.Fatal(err)
	}
	var add [8]byte
	add[0] = 5
	op := wire.Op{Code: wire.OpFetchAdd, RKey: r.Key, Target: r.Base, Data: add[:], Flags: wire.FlagTargetIndirect}
	mustOK(t, first(x.Exec(&op)))
	if v, _ := x.Space.ReadU64(r.Key, r.Base+128); v != 105 {
		t.Fatalf("indirect fetch-add: %d", v)
	}
}

// Property: CASGt(data) succeeds exactly when CASLt with swapped operand
// roles would: data > cur  <=>  cur < data.
func TestQuickCASGtLtDuality(t *testing.T) {
	f := func(cur, data [8]byte) bool {
		mk := func(mode wire.CASMode, target, operand [8]byte) bool {
			space := memory.NewSpace()
			r, _ := space.Register(64)
			x := NewExecutor(space)
			w := Write(r.Key, r.Base, target[:])
			x.Exec(&w)
			op := CAS(r.Key, r.Base, mode, operand[:], nil, nil)
			res, _ := x.Exec(&op)
			return res.Status == wire.StatusOK
		}
		gt := mk(wire.CASGt, cur, data) // data > cur
		lt := mk(wire.CASLt, data, cur) // cur < data (same relation)
		return gt == lt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestChainDepthLimitOnWire(t *testing.T) {
	// The wire format caps chains at 64 ops; longer chains fail to decode.
	ops := make([]wire.Op, 65)
	for i := range ops {
		ops[i] = wire.Op{Code: wire.OpRead, Len: 8}
	}
	req := &wire.Request{Conn: 1, Seq: 1, Ops: ops}
	b := wire.AppendRequest(nil, req)
	if err := wire.DecodeRequestAlias(new(wire.Request), b); err == nil {
		t.Fatal("65-op chain decoded")
	}
}
