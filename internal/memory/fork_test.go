package memory

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// buildParent registers a few regions of assorted sizes, fills them with a
// recognizable pattern, and snapshots.
func buildParent(t *testing.T) (*Snapshot, []*Region) {
	t.Helper()
	s := NewSpace()
	sizes := []uint64{3 << 16, 100, 1<<16 + 17}
	regs := make([]*Region, len(sizes))
	for i, n := range sizes {
		r, err := s.Register(n)
		if err != nil {
			t.Fatalf("register %d: %v", n, err)
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(uint64(i+1)*31 + uint64(j))
		}
		if err := s.Write(r.Key, r.Base, b); err != nil {
			t.Fatalf("fill: %v", err)
		}
		regs[i] = r
	}
	return s.Snapshot(), regs
}

func TestForkSharesUntilWrite(t *testing.T) {
	sn, regs := buildParent(t)
	f := sn.Fork()
	r := regs[0]

	got, err := f.Peek(r.Key, r.Base+5, 16)
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	want, _ := sn.Space().Peek(r.Key, r.Base+5, 16)
	if !bytes.Equal(got, want) {
		t.Fatalf("fork peek differs from parent before any write")
	}
	if fr := f.RegionAt(r.Base); !fr.Shared() {
		t.Fatalf("untouched fork region should still share the parent's bytes")
	}

	// Write one byte in the middle of the region: the region, and only it,
	// becomes private.
	const mid = 1<<16 + 7
	if err := f.Write(r.Key, r.Base+mid, []byte{0xAB}); err != nil {
		t.Fatalf("fork write: %v", err)
	}
	if f.RegionAt(r.Base).Shared() {
		t.Fatalf("written region should be private")
	}
	for _, o := range regs[1:] {
		if !f.RegionAt(o.Base).Shared() {
			t.Fatalf("a write to one region privatized the region at %#x", o.Base)
		}
	}
	// Parent byte unchanged.
	pb, _ := sn.Space().Peek(r.Key, r.Base+mid, 1)
	if pb[0] == 0xAB {
		t.Fatalf("fork write leaked into parent")
	}
	// Fork sees its own byte, and neighbors from the parent pattern.
	fb, _ := f.Peek(r.Key, r.Base+mid-1, 3)
	if fb[0] != pb[0]-1 || fb[1] != 0xAB {
		t.Fatalf("fork view = %v, want parent neighbor then 0xAB", fb[:2])
	}
}

func TestSiblingForksIsolated(t *testing.T) {
	sn, regs := buildParent(t)
	f1, f2 := sn.Fork(), sn.Fork()
	r := regs[2]

	if err := f1.WriteU64(r.Key, r.Base+8, 0xDEAD); err != nil {
		t.Fatalf("f1 write: %v", err)
	}
	v2, err := f2.ReadU64(r.Key, r.Base+8)
	if err != nil {
		t.Fatalf("f2 read: %v", err)
	}
	vp, _ := sn.Space().ReadU64(r.Key, r.Base+8)
	if v2 != vp {
		t.Fatalf("sibling fork observed the other fork's write")
	}
	if v1, _ := f1.ReadU64(r.Key, r.Base+8); v1 != 0xDEAD {
		t.Fatalf("f1 lost its own write: %#x", v1)
	}
}

func TestPeekCacheAcrossForkWrite(t *testing.T) {
	// The last-region cache must never serve a stale shared view after the
	// fork copies the region: Peek, write the same range, Peek again.
	sn, regs := buildParent(t)
	f := sn.Fork()
	r := regs[0]

	before, err := f.Peek(r.Key, r.Base, 8)
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	b0 := before[0]
	if err := f.Write(r.Key, r.Base, []byte{b0 + 1}); err != nil {
		t.Fatalf("write: %v", err)
	}
	after, _ := f.Peek(r.Key, r.Base, 8)
	if after[0] != b0+1 {
		t.Fatalf("Peek after write returned stale byte %#x, want %#x", after[0], b0+1)
	}
	// And the parent, looked up through its own cache, still has the old byte.
	pb, _ := sn.Space().Peek(r.Key, r.Base, 1)
	if pb[0] != b0 {
		t.Fatalf("parent byte changed: %#x -> %#x", b0, pb[0])
	}
}

func TestForkMixedRangeView(t *testing.T) {
	// The first write to a region copies all of it: a Peek of the whole
	// region returns the fork's byte and the parent's everywhere else, and a
	// neighbouring region the fork never wrote still reads the parent's
	// bytes in place.
	sn, regs := buildParent(t)
	f := sn.Fork()
	r, next := regs[0], regs[1]

	if err := f.Write(r.Key, r.Base, []byte{0x11}); err != nil {
		t.Fatalf("write: %v", err)
	}
	whole, err := f.Peek(r.Key, r.Base, r.Len)
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	parent := sn.Space().mustPeekAll(r)
	if whole[0] != 0x11 || !bytes.Equal(whole[1:], parent[1:]) {
		t.Fatalf("written region's view is not its write over the parent's bytes")
	}
	if !f.RegionAt(next.Base).Shared() {
		t.Fatalf("neighbouring region was privatized by a write to another")
	}
	view, _ := f.Peek(next.Key, next.Base, next.Len)
	if pv := sn.Space().mustPeekAll(next); &view[0] != &pv[0] {
		t.Fatalf("an unwritten region's view does not alias the parent's bytes")
	}
}

func TestForkNAKsMatchParent(t *testing.T) {
	sn, regs := buildParent(t)
	f := sn.Fork()
	r := regs[1]

	cases := []struct {
		key  RKey
		addr Addr
		n    uint64
		want error
	}{
		{r.Key, 0, 8, ErrNullPointer},
		{r.Key, r.End() + 0x10000000, 8, ErrUnregistered},
		{r.Key + 100, r.Base, 8, ErrBadRKey},
		{r.Key, r.Base + Addr(r.Len) - 4, 8, ErrOutOfBounds},
	}
	for _, c := range cases {
		_, pErr := sn.Space().Peek(c.key, c.addr, c.n)
		_, fErr := f.Peek(c.key, c.addr, c.n)
		if !errors.Is(pErr, c.want) || !errors.Is(fErr, c.want) {
			t.Fatalf("NAK mismatch at %#x: parent %v, fork %v, want %v", c.addr, pErr, fErr, c.want)
		}
	}
	// A fork write that crosses the region boundary must not privatize or
	// alter anything.
	if err := f.Write(r.Key, r.Base+Addr(r.Len)-4, make([]byte, 8)); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("fork OOB write: %v", err)
	}
	if fr := f.RegionAt(r.Base); !fr.Shared() {
		t.Fatalf("rejected write privatized the region")
	}
}

// Fork allocates its region records together, so forking a template of
// many slabs costs what forking one of a few does.
func TestForkAllocsIndependentOfRegions(t *testing.T) {
	allocs := func(regions int) float64 {
		s := NewSpace()
		for i := 0; i < regions; i++ {
			if _, err := s.Register(64); err != nil {
				t.Fatal(err)
			}
		}
		sn := s.Snapshot()
		return testing.AllocsPerRun(20, func() { sn.Fork() })
	}
	if few, many := allocs(10), allocs(10000); few != many {
		t.Fatalf("Fork allocates %.0f times for 10 regions and %.0f for 10 000", few, many)
	}
}

func TestSealedParentRejectsMutation(t *testing.T) {
	sn, regs := buildParent(t)
	defer func() {
		if recover() == nil {
			t.Fatalf("write to sealed parent did not panic")
		}
	}()
	_ = sn.Space().Write(regs[0].Key, regs[0].Base, []byte{1})
}

func TestForkCanRegisterNewRegions(t *testing.T) {
	// Servers lazily register connection temp regions after instantiation;
	// two forks doing so must get identical addresses and keys.
	sn, _ := buildParent(t)
	f1, f2 := sn.Fork(), sn.Fork()
	r1, err := f1.Register(4096)
	if err != nil {
		t.Fatalf("fork register: %v", err)
	}
	r2, err := f2.Register(4096)
	if err != nil {
		t.Fatalf("fork register: %v", err)
	}
	if r1.Base != r2.Base || r1.Key != r2.Key {
		t.Fatalf("fork registrations diverged: %#x/%d vs %#x/%d", r1.Base, r1.Key, r2.Base, r2.Key)
	}
	if err := f1.Write(r1.Key, r1.Base, []byte{9}); err != nil {
		t.Fatalf("write to fork-registered region: %v", err)
	}
}

func TestForkRandomizedMatchesShadow(t *testing.T) {
	// Property check: a fork under a random mix of reads and writes behaves
	// exactly like an independent shadow copy, and the parent never changes.
	sn, regs := buildParent(t)
	f := sn.Fork()
	r := regs[0]

	parentImg := append([]byte(nil), sn.Space().mustPeekAll(r)...)
	shadow := append([]byte(nil), parentImg...)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		off := uint64(rng.Intn(int(r.Len - 64)))
		n := uint64(1 + rng.Intn(64))
		if rng.Intn(2) == 0 {
			b := make([]byte, n)
			rng.Read(b)
			if err := f.Write(r.Key, r.Base+Addr(off), b); err != nil {
				t.Fatalf("write: %v", err)
			}
			copy(shadow[off:], b)
		} else {
			got, err := f.Peek(r.Key, r.Base+Addr(off), n)
			if err != nil {
				t.Fatalf("peek: %v", err)
			}
			if !bytes.Equal(got, shadow[off:off+n]) {
				t.Fatalf("iteration %d: fork view diverged from shadow at +%d", i, off)
			}
		}
	}
	if !bytes.Equal(sn.Space().mustPeekAll(r), parentImg) {
		t.Fatalf("parent bytes changed under fork traffic")
	}
}

// mustPeekAll returns the full contents of r via the space's checked path.
func (s *Space) mustPeekAll(r *Region) []byte {
	b, err := s.Peek(r.Key, r.Base, r.Len)
	if err != nil {
		panic(err)
	}
	return b
}

// Register appends without sorting: the allocation pointer only grows —
// in a fork too, which inherits it — so regions stay sorted by Base, which
// is what find's binary search needs.
func TestRegionsStaySortedAcrossRegisterAndFork(t *testing.T) {
	sorted := func(s *Space, when string) {
		t.Helper()
		rs := s.Regions()
		for i := 1; i < len(rs); i++ {
			if rs[i-1].End() > rs[i].Base {
				t.Fatalf("%s: region %d [%#x,%#x) not below region %d at %#x", when, i-1, rs[i-1].Base, rs[i-1].End(), i, rs[i].Base)
			}
		}
		for _, r := range rs {
			if got := s.RegionAt(r.End() - 1); got != r {
				t.Fatalf("%s: lookup of %#x missed its region", when, r.End()-1)
			}
		}
	}
	s := NewSpace()
	first, err := s.Register(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 40; i++ {
		if i%3 == 0 {
			_, err = s.Register(i * 37)
		} else {
			_, err = s.RegisterShared(first.Key, i*1000)
		}
		if err != nil {
			t.Fatal(err)
		}
		sorted(s, "parent")
	}
	snap := s.Snapshot()
	forks := []*Space{snap.Fork(), snap.Fork()}
	for i := uint64(1); i <= 20; i++ {
		for _, f := range forks {
			if _, err := f.RegisterShared(first.Key, i*4096); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Register(64); err != nil {
				t.Fatal(err)
			}
			sorted(f, "fork")
		}
	}
	a, b := forks[0].Regions(), forks[1].Regions()
	for i := range a {
		if a[i].Base != b[i].Base || a[i].Len != b[i].Len || a[i].Key != b[i].Key {
			t.Fatalf("forks registered region %d differently: %+v vs %+v", i, a[i], b[i])
		}
	}
}
