package transport

import (
	"slices"
	"testing"
	"time"

	"prism/internal/memory"
)

// TestConnTempCarving holds the temp-region schedule: a server registers
// a page for its first connections and doubles from there, so what it
// registers follows what it hands out, and from the cap on every region is
// the 256 KiB unit a server used to register up front.
func TestConnTempCarving(t *testing.T) {
	const calls = 3000
	space := memory.NewSpace()
	meta, err := space.Register(64)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHostCore(space)
	h.SetConnTempKey(meta.Key)

	page := uint64(4096)
	addrs := make([]memory.Addr, 0, calls)
	for i := 1; i <= calls; i++ {
		a := h.AllocConnTemp()
		addrs = append(addrs, a)
		if _, err := space.Check(h.TempKey(), a, ConnTempSize); err != nil {
			t.Fatalf("call %d: buffer %#x is not inside a region under TempKey: %v", i, a, err)
		}
		var registered uint64
		for _, r := range space.Regions()[1:] {
			registered += r.Len
		}
		if used := uint64(i) * ConnTempSize; registered > 2*used+page {
			t.Fatalf("call %d: %d bytes registered for %d handed out", i, registered, used)
		}
	}

	slices.Sort(addrs)
	for i := 1; i < len(addrs); i++ {
		if addrs[i] < addrs[i-1]+ConnTempSize {
			t.Fatalf("buffers %#x and %#x overlap", addrs[i-1], addrs[i])
		}
	}

	want := []uint64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 256 << 10}
	got := space.Regions()[1:]
	if len(got) != len(want) {
		t.Fatalf("%d temp regions after %d calls, want %d", len(got), calls, len(want))
	}
	for i, r := range got {
		if r.Len != want[i] || r.Key != meta.Key {
			t.Errorf("temp region %d: %d bytes under key %d, want %d under key %d", i, r.Len, r.Key, want[i], meta.Key)
		}
	}
	// The helper TestConnectCoalescedWithVerbsBatch aims with agrees.
	if n := tempRegionFill(7); n != 2032 {
		t.Errorf("tempRegionFill(7) = %d, want 2032 buffers before the first capped region", n)
	}
}

// A live server's StageWrites returns once every write has landed, in
// order, each under a guard acquisition of its own (the guard is free
// again after), and it stops at the first write that fails and returns
// that write's error.
func TestStageWritesLandInOrder(t *testing.T) {
	s := NewServer()
	space := s.Space()
	r, err := space.Register(64)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping writes: only their order leaves "aabbccdd".
	writes := []StagedWrite{
		{Addr: r.Base, Data: []byte("aaaaaaaa")},
		{Addr: r.Base + 2, Data: []byte("bbbbbb")},
		{Addr: r.Base + 4, Data: []byte("cccc")},
		{Addr: r.Base + 6, Data: []byte("dd")},
	}
	if err := s.StageWrites(r.Key, time.Hour, writes); err != nil {
		t.Fatal(err)
	}
	if got, _ := space.Peek(r.Key, r.Base, 8); string(got) != "aabbccdd" {
		t.Fatalf("memory reads %q after the call, want %q", got, "aabbccdd")
	}
	if !space.Guard().TryLock() {
		t.Fatal("StageWrites returned holding the space guard")
	}
	space.Guard().Unlock()

	outside := StagedWrite{Addr: r.End(), Data: []byte("x")}
	want := space.Write(r.Key, outside.Addr, outside.Data)
	if want == nil {
		t.Fatal("a write past the region succeeded")
	}
	err = s.StageWrites(r.Key, 0, []StagedWrite{
		{Addr: r.Base, Data: []byte("1")},
		outside,
		{Addr: r.Base + 1, Data: []byte("2")},
	})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("StageWrites returned %v, want the failed write's %v", err, want)
	}
	if got, _ := space.Peek(r.Key, r.Base, 2); string(got) != "1a" {
		t.Fatalf("memory reads %q: want the write before the failure landed and none after it", got)
	}
}
