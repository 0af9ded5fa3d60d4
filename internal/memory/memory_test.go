package memory

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegisterAndReadWrite(t *testing.T) {
	s := NewSpace()
	r, err := s.Register(1024)
	if err != nil {
		t.Fatal(err)
	}
	if r.Base == 0 {
		t.Fatal("region based at null")
	}
	data := []byte("hello prism")
	if err := s.Write(r.Key, r.Base+16, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(r.Key, r.Base+16, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestRKeyEnforced(t *testing.T) {
	s := NewSpace()
	r1, _ := s.Register(128)
	r2, _ := s.Register(128)
	if _, err := s.Read(r2.Key, r1.Base, 8); !errors.Is(err, ErrBadRKey) {
		t.Fatalf("cross-rkey read: %v", err)
	}
	if err := s.Write(r1.Key, r2.Base, []byte{1}); !errors.Is(err, ErrBadRKey) {
		t.Fatalf("cross-rkey write: %v", err)
	}
}

func TestUnregisteredAccess(t *testing.T) {
	s := NewSpace()
	r, _ := s.Register(64)
	if _, err := s.Read(r.Key, r.End()+0x10000, 8); !errors.Is(err, ErrUnregistered) {
		t.Fatalf("unregistered read: %v", err)
	}
}

func TestBoundaryCrossing(t *testing.T) {
	s := NewSpace()
	r, _ := s.Register(64)
	if _, err := s.Read(r.Key, r.Base+60, 8); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("boundary read: %v", err)
	}
	// Exactly to the end is fine.
	if _, err := s.Read(r.Key, r.Base+56, 8); err != nil {
		t.Fatalf("read to end: %v", err)
	}
}

func TestNullPointer(t *testing.T) {
	s := NewSpace()
	r, _ := s.Register(64)
	if _, err := s.Read(r.Key, 0, 8); !errors.Is(err, ErrNullPointer) {
		t.Fatalf("null read: %v", err)
	}
	_ = r
}

func TestZeroSizeRegistrationRejected(t *testing.T) {
	s := NewSpace()
	if _, err := s.Register(0); err == nil {
		t.Fatal("zero-size registration accepted")
	}
}

func TestU64Roundtrip(t *testing.T) {
	s := NewSpace()
	r, _ := s.Register(64)
	if err := s.WriteU64(r.Key, r.Base+8, 0xdeadbeefcafe); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadU64(r.Key, r.Base+8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafe {
		t.Fatalf("got %#x", v)
	}
}

func TestBoundedPtrRoundtrip(t *testing.T) {
	s := NewSpace()
	r, _ := s.Register(64)
	in := BoundedPtr{Ptr: 0x4242, Bound: 512}
	if err := s.WriteBoundedPtr(r.Key, r.Base, in); err != nil {
		t.Fatal(err)
	}
	out, err := s.ReadBoundedPtr(r.Key, r.Base)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	s := NewSpace()
	var regions []*Region
	for i := 0; i < 50; i++ {
		r, err := s.Register(uint64(1 + i*7))
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	for i, a := range regions {
		for j, b := range regions {
			if i == j {
				continue
			}
			if a.Base < b.End() && b.Base < a.End() {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

// TestWriteView: a view writes where Write would, refuses what Write
// refuses with the same error, panics on a sealed space, and on a fork
// copies only the region it views, leaving the parent's bytes as they were.
func TestWriteView(t *testing.T) {
	s := NewSpace()
	r, _ := s.Register(64)
	other, _ := s.Register(64)
	v, err := s.WriteView(r.Key, r.Base+8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 4 || cap(v) != 4 {
		t.Fatalf("view len %d cap %d, want 4 and 4", len(v), cap(v))
	}
	copy(v, "abcd")
	if got, _ := s.Read(r.Key, r.Base+8, 4); string(got) != "abcd" {
		t.Fatalf("view write not visible remotely: %q", got)
	}
	for _, c := range []struct {
		name string
		key  RKey
		addr Addr
		n    uint64
		want error
	}{
		{"wrong rkey", other.Key, r.Base, 8, ErrBadRKey},
		{"out of bounds", r.Key, r.Base + 60, 8, ErrOutOfBounds},
		{"null address", r.Key, 0, 8, ErrNullPointer},
		{"unregistered", r.Key, other.End() + 0x10000, 8, ErrUnregistered},
	} {
		v, err := s.WriteView(c.key, c.addr, c.n)
		werr := s.Write(c.key, c.addr, make([]byte, c.n))
		if v != nil || !errors.Is(err, c.want) || werr == nil || err.Error() != werr.Error() {
			t.Errorf("%s: WriteView = %v, %v; Write = %v; want nil and %v from both", c.name, v, err, werr, c.want)
		}
	}

	sn, regs := buildParent(t)
	parent := sn.Space()
	before, _ := parent.Read(regs[1].Key, regs[1].Base, regs[1].Len)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WriteView on a sealed space did not panic")
			}
		}()
		parent.WriteView(regs[1].Key, regs[1].Base, 8)
	}()
	f := sn.Fork()
	v, err = f.WriteView(regs[1].Key, regs[1].Base+4, 8)
	if err != nil {
		t.Fatal(err)
	}
	copy(v, "forkview")
	for i, fr := range f.Regions() {
		if want := i != 1; fr.Shared() != want {
			t.Errorf("fork region %d shared = %v after a view of region 1, want %v", i, fr.Shared(), want)
		}
	}
	if after, _ := parent.Read(regs[1].Key, regs[1].Base, regs[1].Len); !bytes.Equal(after, before) {
		t.Fatal("a view on a fork changed the parent's bytes")
	}
	if got, _ := f.Read(regs[1].Key, regs[1].Base+4, 8); string(got) != "forkview" {
		t.Fatalf("fork reads %q through its own view", got)
	}
}

// TestFindAlternates: lookups alternating between two regions, or spread
// over all of them, return the region a scan finds, and a fork of a space
// whose cache is warm never returns one of the parent's regions.
func TestFindAlternates(t *testing.T) {
	s := NewSpace()
	var regs []*Region
	for i := 0; i < 16; i++ {
		r, _ := s.Register(uint64(64 + 8*i))
		regs = append(regs, r)
	}
	scan := func(regs []*Region, addr Addr) *Region {
		for _, r := range regs {
			if r.Contains(addr, 1) {
				return r
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(1))
	pick := func(r *Region) Addr { return r.Base + Addr(rng.Intn(int(r.Len))) }
	for i := 0; i < 200; i++ {
		var addr Addr
		switch {
		case i < 100: // alternate between two regions
			addr = pick(regs[3+8*(i%2)])
		case i%3 == 0: // one of the pair, then anywhere
			addr = pick(regs[3])
		default:
			addr = pick(regs[rng.Intn(len(regs))])
		}
		if got, want := s.find(addr), scan(regs, addr); got != want {
			t.Fatalf("lookup %d of %#x: region %p, want %p", i, addr, got, want)
		}
	}
	if s.find(regs[15].End()+64) != nil {
		t.Fatal("an address past every region found a region")
	}

	s.find(regs[3].Base)
	s.find(regs[11].Base)
	f := s.Snapshot().Fork()
	forkRegs := f.Regions()
	for i := 0; i < 4; i++ {
		for _, j := range []int{3, 11} {
			got := f.find(regs[j].Base)
			if got == regs[j] || got != forkRegs[j] {
				t.Fatalf("fork lookup of region %d: %p, want the fork's %p (the parent's is %p)", j, got, forkRegs[j], regs[j])
			}
		}
	}
}

// Property: any write followed by a read of the same range under the same
// key returns the written bytes, regardless of offset/length.
func TestQuickWriteReadRoundtrip(t *testing.T) {
	s := NewSpace()
	r, _ := s.Register(4096)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := uint64(off) % (4096 - uint64(len(data)%4096))
		if o+uint64(len(data)) > 4096 {
			return true
		}
		addr := r.Base + Addr(o)
		if err := s.Write(r.Key, addr, data); err != nil {
			return false
		}
		got, err := s.Read(r.Key, addr, uint64(len(data)))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Property: reads never observe bytes outside the written range.
func TestQuickReadIsolation(t *testing.T) {
	s := NewSpace()
	r, _ := s.Register(1024)
	marker := bytes.Repeat([]byte{0xAA}, 1024)
	if err := s.Write(r.Key, r.Base, marker); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, n uint8) bool {
		o := uint64(off) % 1000
		ln := uint64(n)%16 + 1
		if o+ln > 1024 {
			return true
		}
		got, err := s.Read(r.Key, r.Base+Addr(o), ln)
		if err != nil {
			return false
		}
		for _, b := range got {
			if b != 0xAA {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterShared(t *testing.T) {
	s := NewSpace()
	r1, _ := s.Register(128)
	r2, err := s.RegisterShared(r1.Key, 128)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Key != r1.Key {
		t.Fatal("shared registration did not share the key")
	}
	// Accesses to both regions succeed under the shared key.
	if err := s.Write(r1.Key, r2.Base, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A never-issued key is rejected.
	if _, err := s.RegisterShared(999, 64); err == nil {
		t.Fatal("RegisterShared accepted a bogus key")
	}
	if _, err := s.RegisterShared(0, 64); err == nil {
		t.Fatal("RegisterShared accepted key 0")
	}
}

func TestSharedKeyStillIsolatesOthers(t *testing.T) {
	s := NewSpace()
	r1, _ := s.Register(64)
	other, _ := s.Register(64)
	shared, _ := s.RegisterShared(r1.Key, 64)
	if _, err := s.Read(other.Key, shared.Base, 8); !errors.Is(err, ErrBadRKey) {
		t.Fatalf("foreign key read of shared region: %v", err)
	}
}
