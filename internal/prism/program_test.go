package prism

import (
	"bytes"
	"testing"

	"prism/internal/memory"
	"prism/internal/wire"
)

// buildList lays out a singly-linked list in r: a head pointer cell at
// r.Base, then nodes of [next(8,LE) | key(8,BE) | payload(8)] at 64-byte
// spacing. Returns the node addresses.
func buildList(t *testing.T, x *Executor, r *memory.Region, keys []uint64) []memory.Addr {
	t.Helper()
	nodes := make([]memory.Addr, len(keys))
	for i := range keys {
		nodes[i] = r.Base + memory.Addr(64*(i+1))
	}
	for i, key := range keys {
		node := make([]byte, 24)
		if i+1 < len(keys) {
			PutLE64(node, 0, uint64(nodes[i+1]))
		}
		PutBE64(node, 8, key)
		PutLE64(node, 16, 0xA0A0A0A0A0A0A0A0+key)
		if err := x.Space.Write(r.Key, nodes[i], node); err != nil {
			t.Fatal(err)
		}
	}
	head := uint64(0)
	if len(nodes) > 0 {
		head = uint64(nodes[0])
	}
	if err := x.Space.WriteU64(r.Key, r.Base, head); err != nil {
		t.Fatal(err)
	}
	return nodes
}

func chaseListOp(r *memory.Region, maxSteps uint8, key uint64) wire.Op {
	var match [8]byte
	PutBE64(match[:], 0, key)
	p := Program{Kind: ProgChaseList, MaxSteps: maxSteps, MatchOff: 8, NextOff: 0}
	prog := AppendProgram(nil, &p, match[:])
	return Chase(r.Key, r.Base, prog, wire.CASEq, nil, 24)
}

func TestChaseListFindsDeepNode(t *testing.T) {
	x, r := testEnv(t)
	keys := []uint64{100, 101, 102, 103, 104}
	nodes := buildList(t, x, r, keys)
	for i, key := range keys {
		op := chaseListOp(r, 8, key)
		res, meta := x.Exec(&op)
		mustOK(t, res)
		if res.Addr != nodes[i] {
			t.Fatalf("key %d: matched node %#x, want %#x", key, res.Addr, nodes[i])
		}
		if got := BE64(res.Data, 8); got != key {
			t.Fatalf("key %d: node holds %d", key, got)
		}
		if meta.Steps != i+1 {
			t.Fatalf("key %d: %d steps, want %d", key, meta.Steps, i+1)
		}
	}
}

func TestChaseListNilTerminates(t *testing.T) {
	x, r := testEnv(t)
	buildList(t, x, r, []uint64{100, 101})
	op := chaseListOp(r, 8, 999)
	res, meta := x.Exec(&op)
	if res.Status != wire.StatusNotFound {
		t.Fatalf("status = %v, want NOT_FOUND", res.Status)
	}
	if meta.Steps != 3 {
		// Two real nodes plus the nil-pointer load that ended the walk.
		t.Fatalf("steps = %d, want 3", meta.Steps)
	}
}

func TestChaseListStepLimitResumes(t *testing.T) {
	x, r := testEnv(t)
	keys := []uint64{100, 101, 102, 103, 104, 105}
	nodes := buildList(t, x, r, keys)
	op := chaseListOp(r, 2, 105)
	res, meta := x.Exec(&op)
	if res.Status != wire.StatusStepLimit {
		t.Fatalf("status = %v, want STEP_LIMIT", res.Status)
	}
	if meta.Steps != 2 {
		t.Fatalf("steps = %d", meta.Steps)
	}
	// The cursor is the next-pointer cell of the last visited node:
	// resuming from it must finish the walk with no revisits.
	if res.Addr != nodes[1]+0 {
		t.Fatalf("cursor = %#x, want %#x", res.Addr, nodes[1])
	}
	var match [8]byte
	PutBE64(match[:], 0, 105)
	p := Program{Kind: ProgChaseList, MaxSteps: 8, MatchOff: 8, NextOff: 0}
	resume := Chase(r.Key, res.Addr, AppendProgram(nil, &p, match[:]), wire.CASEq, nil, 24)
	res2, meta2 := x.Exec(&resume)
	mustOK(t, res2)
	if res2.Addr != nodes[5] {
		t.Fatalf("resumed to %#x, want %#x", res2.Addr, nodes[5])
	}
	if meta.Steps+meta2.Steps != len(keys) {
		t.Fatalf("total steps %d, want %d", meta.Steps+meta2.Steps, len(keys))
	}
}

func TestChaseRejectsBadPrograms(t *testing.T) {
	x, r := testEnv(t)
	buildList(t, x, r, []uint64{1})
	var match [8]byte
	bad := []wire.Op{
		// Zero step bound.
		Chase(r.Key, r.Base, AppendProgram(nil, &Program{Kind: ProgChaseList, MatchOff: 8}, match[:]), wire.CASEq, nil, 24),
		// Step bound above the cap.
		Chase(r.Key, r.Base, AppendProgram(nil, &Program{Kind: ProgChaseList, MaxSteps: MaxChaseSteps + 1, MatchOff: 8}, match[:]), wire.CASEq, nil, 24),
		// No match operand.
		Chase(r.Key, r.Base, AppendProgram(nil, &Program{Kind: ProgChaseList, MaxSteps: 4}, nil), wire.CASEq, nil, 24),
		// Unknown kind.
		Chase(r.Key, r.Base, AppendProgram(nil, &Program{Kind: 7, MaxSteps: 4}, match[:]), wire.CASEq, nil, 24),
		// Kind 1 is rejected, whatever its geometry: the list walk is the one kind.
		Chase(r.Key, r.Base, AppendProgram(nil, &Program{Kind: 1, MaxSteps: 4, NextOff: 8, Stride: 32, NSlots: 8}, match[:]), wire.CASEq, nil, 24),
		// Mask width mismatch.
		Chase(r.Key, r.Base, AppendProgram(nil, &Program{Kind: ProgChaseList, MaxSteps: 4}, match[:]), wire.CASEq, []byte{0xFF}, 24),
		// Truncated header.
		{Code: wire.OpChase, RKey: r.Key, Target: r.Base, Len: 24, Data: []byte{1, 2, 3}},
	}
	for i, op := range bad {
		res, _ := x.Exec(&op)
		if res.Status != wire.StatusNAKAccess {
			t.Fatalf("bad program %d: status %v, want NAK_ACCESS", i, res.Status)
		}
	}
}

// buildTable lays out a slot table of 32-byte slots: [pad(8) |
// ptr(8,LE) | bound(8,LE) | pad(8)], entries of [key(8,BE) | value].
func buildTable(t *testing.T, x *Executor, r *memory.Region, nSlots int, entries map[int]uint64) {
	t.Helper()
	entryBase := r.Base + memory.Addr(32*nSlots)
	i := 0
	for slot, key := range entries {
		addr := entryBase + memory.Addr(64*i)
		entry := make([]byte, 16)
		PutBE64(entry, 0, key)
		PutLE64(entry, 8, 0xB0B0+key)
		if err := x.Space.Write(r.Key, addr, entry); err != nil {
			t.Fatal(err)
		}
		if err := x.Space.WriteBoundedPtr(r.Key, r.Base+memory.Addr(32*slot+8),
			memory.BoundedPtr{Ptr: addr, Bound: 16}); err != nil {
			t.Fatal(err)
		}
		i++
	}
}

func scanOp(r *memory.Region, start, nSlots uint64, budget uint64) wire.Op {
	p := Program{NextOff: 8, Stride: 32, StartIdx: start, NSlots: nSlots}
	return Scan(r.Key, r.Base, AppendProgram(nil, &p, nil), budget)
}

func TestScanPacksNonEmptySlots(t *testing.T) {
	x, r := testEnv(t)
	buildTable(t, x, r, 8, map[int]uint64{1: 21, 3: 23, 6: 26})
	op := scanOp(r, 0, 8, 4096)
	res, meta := x.Exec(&op)
	mustOK(t, res)
	if res.Addr != 8 {
		t.Fatalf("cursor = %d, want 8 (range complete)", res.Addr)
	}
	if meta.Steps != 8 {
		t.Fatalf("steps = %d, want 8 slots visited", meta.Steps)
	}
	var keys []uint64
	if err := ScanEntries(res.Data, func(e []byte) error {
		keys = append(keys, BE64(e, 0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{21, 23, 26}
	if len(keys) != len(want) {
		t.Fatalf("scanned keys %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scanned keys %v, want %v (address order)", keys, want)
		}
	}
}

func TestScanBudgetCursorResumes(t *testing.T) {
	x, r := testEnv(t)
	buildTable(t, x, r, 8, map[int]uint64{0: 20, 1: 21, 2: 22, 3: 23})
	// Each packed record is 4+16 bytes; a 45-byte budget fits two.
	var keys []uint64
	cursor := uint64(0)
	rounds := 0
	for cursor < 8 {
		op := scanOp(r, cursor, 8, 45)
		res, _ := x.Exec(&op)
		mustOK(t, res)
		if err := ScanEntries(res.Data, func(e []byte) error {
			keys = append(keys, BE64(e, 0))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if uint64(res.Addr) <= cursor {
			t.Fatalf("cursor did not advance: %d -> %d", cursor, res.Addr)
		}
		cursor = uint64(res.Addr)
		rounds++
	}
	if rounds != 2 {
		// Two records per window; the empty tail costs no budget, so the
		// second window runs through to the range end.
		t.Fatalf("windows = %d, want 2", rounds)
	}
	want := []uint64{20, 21, 22, 23}
	if len(keys) != len(want) {
		t.Fatalf("scanned %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scanned %v, want %v", keys, want)
		}
	}
}

func TestScanRejectsBadPrograms(t *testing.T) {
	x, r := testEnv(t)
	buildTable(t, x, r, 8, map[int]uint64{0: 20})
	var match [8]byte
	bad := []wire.Op{
		// Match operand on a scan.
		Scan(r.Key, r.Base, AppendProgram(nil, &Program{NextOff: 8, Stride: 32, NSlots: 8}, match[:]), 4096),
		// Zero budget.
		Scan(r.Key, r.Base, AppendProgram(nil, &Program{NextOff: 8, Stride: 32, NSlots: 8}, nil), 0),
		// Budget above the cap.
		Scan(r.Key, r.Base, AppendProgram(nil, &Program{NextOff: 8, Stride: 32, NSlots: 8}, nil), MaxScanBudget+1),
		// First entry exceeds the budget.
		Scan(r.Key, r.Base, AppendProgram(nil, &Program{NextOff: 8, Stride: 32, NSlots: 8}, nil), 10),
		// Zero stride.
		Scan(r.Key, r.Base, AppendProgram(nil, &Program{NextOff: 8, NSlots: 8}, nil), 4096),
	}
	for i, op := range bad {
		res, _ := x.Exec(&op)
		if res.Status != wire.StatusNAKAccess {
			t.Fatalf("bad scan %d: status %v, want NAK_ACCESS", i, res.Status)
		}
	}
}

func TestProgramRoundtrip(t *testing.T) {
	p := Program{Kind: 3, MaxSteps: 17, MatchOff: 8, NextOff: 16,
		Stride: 48, StartIdx: 5, NSlots: 1024}
	match := []byte{1, 2, 3, 4}
	enc := AppendProgram(nil, &p, match)
	if len(enc) != ProgHeaderLen+len(match) {
		t.Fatalf("encoded %d bytes", len(enc))
	}
	got, m, err := parseProgram(enc)
	if err != nil {
		t.Fatal(err)
	}
	p.MatchLen = uint16(len(match)) // AppendProgram derives it
	if got != p {
		t.Fatalf("roundtrip %+v, want %+v", got, p)
	}
	if !bytes.Equal(m, match) {
		t.Fatalf("match %v", m)
	}
}

// A CHASE on classic hardware RDMA must be refused, like every other
// PRISM-only op: programs are a NIC capability, not a wire trick.
func TestChaseIsPRISMOnly(t *testing.T) {
	x, r := testEnv(t)
	buildList(t, x, r, []uint64{1})
	op := chaseListOp(r, 4, 1)
	_, meta := x.Exec(&op)
	if !meta.PRISMOnly {
		t.Fatal("CHASE not flagged PRISM-only")
	}
	sc := Scan(r.Key, r.Base, AppendProgram(nil, &Program{NextOff: 8, Stride: 32, NSlots: 8}, nil), 64)
	_, meta = x.Exec(&sc)
	if !meta.PRISMOnly {
		t.Fatal("SCAN not flagged PRISM-only")
	}
}
