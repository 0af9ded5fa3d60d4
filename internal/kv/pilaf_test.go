package kv

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"prism/internal/alloc"
	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/workload"
)

// Tests of how a Pilaf store is stood up: the settled bulk load against
// the staged PUT it replaced, extents carved a slab at a time, and
// template instances that read the template's index through.

// drain runs e until idle and reports the events that fired since it was
// made.
func drain(e *sim.Engine) int64 {
	e.Run()
	return e.Stats().EventsExecuted
}

// Load stores the image a PUT leaves once its tear-delayed stores have all
// landed, and the same CPU-side state, without scheduling anything. The
// staged reference is put itself followed by an engine drain, which is how
// a store was loaded before Load wrote the settled image directly.
func TestPilafLoadMatchesStagedPut(t *testing.T) {
	opts := DefaultOptions(3000, 512)
	opts.Hash = FNV // collisions: inserts probe
	opts.BuffersPerClass = 3000
	settled := newPilafEnv(t, opts, model.SoftwarePRISM)
	staged := newPilafEnv(t, opts, model.SoftwarePRISM)
	// 2600 inserts cross slab boundaries (SlabBytes / 536 largest entries a slab);
	// every 7th key is first loaded short, then reloaded at full size,
	// shorter still and at full size again, so extents are retired, left
	// on the free list, reused whole and bumped past.
	for k := int64(0); k < 2600; k++ {
		sizes := []int{512}
		if k%7 == 0 {
			sizes = []int{40 + int(k%200), 512, 30, 512}
		}
		for _, n := range sizes {
			value := bytes.Repeat([]byte{byte(k), byte(n)}, n/2)
			if err := settled.srv.Load(k, value); err != nil {
				t.Fatal(err)
			}
			if err := staged.srv.put(k, value); err != nil {
				t.Fatal(err)
			}
			// Drained put by put: a reload reuses the extent it retires,
			// which the earlier put's delayed stores would land on.
			staged.e.Run()
		}
	}
	if fired := drain(settled.e); fired != 0 {
		t.Fatalf("Load scheduled %d events", fired)
	}
	if spaceChecksum(settled.srv.host.Space()) != spaceChecksum(staged.srv.host.Space()) {
		t.Fatal("settled load and drained staged puts left different memory")
	}
	a, b := settled.srv, staged.srv
	if !reflect.DeepEqual(a.index, b.index) || !reflect.DeepEqual(a.slotOwner, b.slotOwner) ||
		!reflect.DeepEqual(a.extents, b.extents) {
		t.Fatal("settled load and staged puts left different CPU-side state")
	}
	if len(a.extents.free) == 0 || len(a.host.Space().Regions()) < 3 {
		t.Fatalf("the load must recycle extents and cross a slab boundary: %d free, %d regions",
			len(a.extents.free), len(a.host.Space().Regions()))
	}
}

// A Pilaf store registers its hash table and the slabs its entries fill,
// not room for BuffersPerClass entries up front.
func TestPilafFootprintFollowsLoad(t *testing.T) {
	for _, shape := range footprintShapes {
		keys, valueSize := shape.keys, shape.valueSize
		v := newPilafEnv(t, DefaultOptions(keys, valueSize), model.SoftwarePRISM)
		hashBytes := registeredBytes(v.srv.host.Space())
		if want := uint64(keys * pilafSlotSize); hashBytes != want {
			t.Fatalf("an empty store registers %d bytes, want the %d-byte hash table only", hashBytes, want)
		}
		value := make([]byte, valueSize)
		for k := int64(0); k < keys; k++ {
			if err := v.srv.Load(k, value); err != nil {
				t.Fatal(err)
			}
		}
		entryBytes := pilafEntrySize(valueSize)
		if got, want := registeredBytes(v.srv.host.Space()), hashBytes+slabbedBytes(keys, entryBytes); got != want {
			t.Errorf("%d keys of %d bytes: the loaded store registers %d bytes, want %d (hash table + whole slabs of %d-byte entries)",
				keys, valueSize, got, want, entryBytes)
		}
		checkFootprint(t, v.srv.host.Space(), hashBytes, keys, entryBytes)
	}
}

// pilafFork is one instance of a Pilaf template on its own engine.
type pilafFork struct {
	e   *sim.Engine
	srv *PilafServer
	cli *PilafClient
}

func newPilafFork(tmpl pilafImage, seed int64) *pilafFork {
	params := model.Default().WithNetwork(model.Rack)
	e := sim.NewEngine(seed)
	net := fabric.New(e, params)
	nic := rdma.NewServerFromTemplate(net, "pilaf", model.HardwareRDMA, tmpl.nic)
	srv := tmpl.Attach(nic)
	cli := NewPilafClient(rdma.NewClient(net, "cli").Connect(nic), srv.Meta(), params.PilafCRCCost)
	return &pilafFork{e: e, srv: srv, cli: cli}
}

func (f *pilafFork) run(fn func(p *sim.Proc)) {
	f.e.Go("t", fn)
	f.e.Run()
}

// pilafImage is a loaded Pilaf store's image: its NIC's memory and the
// server's CPU half.
type pilafImage struct {
	nic *rdma.ServerTemplate
	*PilafTemplate
}

// loadedPilafTemplate loads keys [0, n) of valueSize bytes (every byte the
// key's low byte) into a store of nSlots slots and captures it.
func loadedPilafTemplate(t *testing.T, opts Options, n int64, valueSize int) pilafImage {
	t.Helper()
	v := newPilafEnv(t, opts, model.SoftwarePRISM)
	for k := int64(0); k < n; k++ {
		if err := v.srv.Load(k, bytes.Repeat([]byte{byte(k)}, valueSize)); err != nil {
			t.Fatal(err)
		}
	}
	if fired := drain(v.e); fired != 0 {
		t.Fatalf("loading the template scheduled %d events", fired)
	}
	return pilafImage{v.nic.Capture(), v.srv.Capture()}
}

// Two instances of one template register the same next slab in their own
// forks — the load fills its slab exactly, so each instance's first insert
// carves — and the sealed parent never changes.
func TestPilafTemplateInstancesCarveIdenticalAddresses(t *testing.T) {
	const valueSize = 512
	loaded := int64(alloc.SlabBytes / pilafEntrySize(valueSize)) // one slab of largest entries
	tmpl := loadedPilafTemplate(t, DefaultOptions(loaded+64, valueSize), loaded, valueSize)
	parent := tmpl.nic.Snapshot().Space()
	parentRegions, parentSum := len(parent.Regions()), spaceChecksum(parent)
	if parentRegions != 2 || tmpl.extents.next != tmpl.extents.end {
		t.Fatalf("template: %d regions, %d extent bytes unallocated; want the hash table and one full slab",
			parentRegions, tmpl.extents.end-tmpl.extents.next)
	}

	var tables [2][]byte
	var bases [2]memory.Addr
	for i := range tables {
		f := newPilafFork(tmpl, int64(10+i)) // seeds differ; addresses must not
		f.run(func(p *sim.Proc) {
			for k := loaded; k < loaded+40; k++ {
				if err := f.cli.Put(p, k, make([]byte, 100+k%50)); err != nil {
					t.Errorf("instance %d put %d: %v", i, k, err)
				}
			}
		})
		space := f.srv.host.Space()
		regions := space.Regions()
		// The instance's connection registered its temp buffer first; the
		// slab its first insert carved is the last region.
		if len(regions) != parentRegions+2 {
			t.Fatalf("instance %d has %d regions, the template %d: want one temp buffer and one carved slab more",
				i, len(regions), parentRegions)
		}
		bases[i] = regions[len(regions)-1].Base
		if f.srv.extents.end != regions[len(regions)-1].End() {
			t.Fatalf("instance %d allocates from %#x, not from the slab it carved", i, f.srv.extents.end)
		}
		table, err := space.Read(f.srv.meta.Key, f.srv.meta.HashBase, uint64(f.srv.meta.NSlots*pilafSlotSize))
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = table
	}
	if bases[0] != bases[1] || !bytes.Equal(tables[0], tables[1]) {
		t.Fatal("two instances of one template installed different extent addresses")
	}
	if len(parent.Regions()) != parentRegions || spaceChecksum(parent) != parentSum {
		t.Fatal("an instance mutated the sealed template space")
	}
}

// An instance reads the template's flat index in place and keeps its own
// PUTs in an overlay over it: they are invisible to the template and to a
// sibling instance, and inserts past the loaded keys probe through both
// layers — a slot the template owns is never handed to a new key, so every
// loaded key stays readable beside the inserted ones. Keys past the flat
// table (here, past NSlots) live in the overlay alone.
func TestPilafForkIndexIsolation(t *testing.T) {
	const loaded, inserted, valueSize = 300, 150, 64
	opts := DefaultOptions(512, valueSize)
	opts.Hash = FNV // loaded and inserted keys collide and probe past each other
	tmpl := loadedPilafTemplate(t, opts, loaded, valueSize)
	if len(tmpl.index.flat) != int(opts.NSlots) || len(tmpl.slotOwner.flat) != int(opts.NSlots) ||
		len(tmpl.index.own) != 0 || len(tmpl.slotOwner.own) != 0 {
		t.Fatalf("template index: %d keys flat and %d in a map, %d slots flat and %d in a map; want %d flat and none in a map",
			len(tmpl.index.flat), len(tmpl.index.own), len(tmpl.slotOwner.flat), len(tmpl.slotOwner.own), opts.NSlots)
	}
	index, used := slices.Clone(tmpl.index.flat), slices.Clone(tmpl.slotOwner.flat)
	const far = 1 << 40 // a key outside the flat table

	writer, sibling := newPilafFork(tmpl, 1), newPilafFork(tmpl, 2)
	for _, f := range []*pilafFork{writer, sibling} {
		if &f.srv.index.flat[0] != &tmpl.index.flat[0] || &f.srv.slotOwner.flat[0] != &tmpl.slotOwner.flat[0] {
			t.Fatal("an instance copied the template's index instead of reading it")
		}
	}
	newValue := func(k int64) []byte { return bytes.Repeat([]byte{byte(k) ^ 0xff}, valueSize) }
	writer.run(func(p *sim.Proc) {
		if err := writer.cli.Put(p, 3, newValue(3)); err != nil {
			t.Error(err)
		}
		for k := int64(loaded); k < loaded+inserted; k++ {
			if err := writer.cli.Put(p, k, newValue(k)); err != nil {
				t.Errorf("insert %d: %v", k, err)
			}
		}
		if err := writer.cli.Put(p, far, newValue(far)); err != nil {
			t.Errorf("insert %d: %v", int64(far), err)
		}
		for k := int64(0); k < loaded+inserted; k++ {
			want := bytes.Repeat([]byte{byte(k)}, valueSize)
			if k == 3 || k >= loaded {
				want = newValue(k)
			}
			if got, err := writer.cli.Get(p, k); err != nil || !bytes.Equal(got, want) {
				t.Errorf("writer: key %d reads back wrong (err %v)", k, err)
			}
		}
		if got, err := writer.cli.Get(p, far); err != nil || !bytes.Equal(got, newValue(far)) {
			t.Errorf("writer: key %d reads back wrong (err %v)", int64(far), err)
		}
	})
	sibling.run(func(p *sim.Proc) {
		if got, err := sibling.cli.Get(p, 3); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{3}, valueSize)) {
			t.Errorf("sibling sees the writer's overwrite of key 3 (err %v)", err)
		}
		if _, err := sibling.cli.Get(p, loaded); err != ErrNotFound {
			t.Errorf("sibling sees the writer's insert of key %d: %v", loaded, err)
		}
		// The sibling's own insert takes the slot the writer's did: the
		// template's slots look the same from every instance.
		if err := sibling.cli.Put(p, loaded, newValue(loaded)); err != nil {
			t.Error(err)
		}
	})
	if !slices.Equal(tmpl.index.flat, index) || !slices.Equal(tmpl.slotOwner.flat, used) ||
		len(tmpl.index.own) != 0 || len(tmpl.slotOwner.own) != 0 {
		t.Fatal("an instance's PUT wrote the template's index")
	}
	if len(writer.srv.index.own) != 2+inserted || len(sibling.srv.index.own) != 1 {
		t.Fatalf("overlays hold %d and %d keys, want what each instance PUT (%d and 1)",
			len(writer.srv.index.own), len(sibling.srv.index.own), 2+inserted)
	}
	if _, ok := writer.srv.index.own[far]; !ok {
		t.Fatalf("key %d, outside the flat table, is not in the writer's overlay", int64(far))
	}
	if len(writer.srv.slotOwner.own) != 1+inserted || len(sibling.srv.slotOwner.own) != 1 {
		t.Fatalf("slot overlays hold %d and %d slots, want the slots each instance inserted into (%d and 1)",
			len(writer.srv.slotOwner.own), len(sibling.srv.slotOwner.own), 1+inserted)
	}
	w, _ := writer.srv.index.get(loaded)
	s, _ := sibling.srv.index.get(loaded)
	if w.slot != s.slot {
		t.Fatalf("key %d landed in slot %d in one instance and %d in its sibling", loaded, w.slot, s.slot)
	}
}

// A reader racing a PUT sees a splice of an image and its overwrite, cut
// anywhere; a faulty link flips a bit. Pilaf's 64-bit check must reject
// every such entry and slot image without a race to produce it: each
// splice of a loaded image with the image its overwrite left, at every
// byte boundary and either way round, unless the splice is one of the
// two, and every single-bit flip of either.
func TestPilafChecksumRejectsSplices(t *testing.T) {
	const key, valueSize = 7, 512
	v := newPilafEnv(t, DefaultOptions(64, valueSize), model.SoftwarePRISM)
	gen := workload.NewGenerator(workload.Mix{Keys: 64, ReadFrac: 1, ValueSize: valueSize}, 0)
	images := func() (slot, entry []byte) {
		s := v.srv
		ref, _ := s.index.get(key)
		slot, err := s.host.Space().Read(s.meta.Key, s.meta.HashBase+memory.Addr(ref.slot*pilafSlotSize), pilafSlotSize)
		if err != nil {
			t.Fatal(err)
		}
		entry, err = s.host.Space().Read(s.meta.Key, ref.ptr, ref.len)
		if err != nil {
			t.Fatal(err)
		}
		return slot, entry
	}
	put := func(version, size int) {
		if err := v.srv.put(key, gen.Value(key, version)[:size]); err != nil {
			t.Fatal(err)
		}
		v.e.Run()
	}
	// Loaded short, the key's first overwrite moves it to a larger extent
	// (a new slot image); its second stays in that extent (a new entry
	// image of the same length).
	if err := v.srv.Load(key, gen.Value(key, 0)[:100]); err != nil {
		t.Fatal(err)
	}
	slot0, _ := images()
	put(1, valueSize)
	slot1, entry0 := images()
	put(2, valueSize)
	_, entry1 := images()
	if bytes.Equal(slot0, slot1) || bytes.Equal(entry0, entry1) || len(entry0) != len(entry1) {
		t.Fatal("the overwrites did not leave new images of the same length")
	}

	entryOK := func(b []byte) bool { _, _, ok := pilafDecodeEntry(b); return ok }
	slotOK := func(b []byte) bool { _, _, _, ok := pilafDecodeSlot(b); return ok }
	for _, c := range []struct {
		name string
		a, b []byte
		ok   func([]byte) bool
	}{{"entry", entry0, entry1, entryOK}, {"slot", slot0, slot1, slotOK}} {
		if !c.ok(c.a) || !c.ok(c.b) {
			t.Fatalf("%s: a stored image does not decode", c.name)
		}
		splices := 0
		for i := 1; i < len(c.a); i++ {
			for _, s := range [][]byte{
				append(bytes.Clone(c.a[:i]), c.b[i:]...),
				append(bytes.Clone(c.b[:i]), c.a[i:]...),
			} {
				if bytes.Equal(s, c.a) || bytes.Equal(s, c.b) {
					continue
				}
				splices++
				if c.ok(s) {
					t.Errorf("%s: a splice at byte %d of %d decodes", c.name, i, len(c.a))
				}
			}
		}
		for _, img := range [][]byte{c.a, c.b} {
			for bit := 0; bit < 8*len(img); bit++ {
				f := bytes.Clone(img)
				f[bit/8] ^= 1 << (bit % 8)
				if c.ok(f) {
					t.Errorf("%s: flipping bit %d decodes", c.name, bit)
				}
			}
		}
		if splices == 0 {
			t.Fatalf("%s: no splice differs from both images", c.name)
		}
	}
}

// A recycled extent is handed out whole and retired whole: a key whose
// values alternate between the largest size and small ones keeps reusing
// one extent instead of shrinking it to the small value's size and
// stranding the rest.
func TestPilafAlternatingSizesKeepExtent(t *testing.T) {
	opts := smallOpts()
	opts.BuffersPerClass = 4
	v := newPilafEnv(t, opts, model.HardwareRDMA)
	c := v.client()
	v.e.Go("t", func(p *sim.Proc) {
		for i := 0; i < 10*opts.BuffersPerClass; i++ {
			// Small sizes that grow, so an extent shrunk to an earlier
			// one would never fit a later one.
			for _, n := range []int{opts.MaxValue, 1 + i%8} {
				if err := c.Put(p, 1, make([]byte, n)); err != nil {
					t.Errorf("round %d, %d-byte value: %v", i, n, err)
					return
				}
			}
		}
	})
	v.e.Run()
	x, entryBytes := v.srv.extents, pilafEntrySize(opts.MaxValue)
	if unallocated := uint64(x.end - x.next); unallocated != uint64(opts.BuffersPerClass-1)*entryBytes {
		t.Fatalf("%d extent bytes left unallocated: the key did not stay in one %d-byte extent", unallocated, entryBytes)
	}
}
