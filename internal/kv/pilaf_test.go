package kv

import (
	"bytes"
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

// Tests of how a Pilaf store is stood up and where its entries live: the
// settled bulk load against the staged PUT it replaced, extents popped
// from one free list that carves a slab at a time, a key that keeps its
// extent, and template instances whose stores stay in their own forks.

// drain runs e until idle and reports the events that fired since it was
// made.
func drain(e *sim.Engine) int64 {
	e.Run()
	return e.Stats().EventsExecuted
}

// handedOut is how many extents fl has popped: what its slabs hold less
// what is still available. Pilaf posts nothing back.
func handedOut(fl *alloc.FreeList) int {
	n := -fl.Len()
	for _, slab := range fl.Slabs() {
		n += slab.Count
	}
	return n
}

// Load stores the image a PUT leaves once its tear-delayed stores have all
// landed, and pops the same extents, without scheduling anything. The
// staged reference is put itself followed by an engine drain, which is how
// a store was loaded before Load wrote the settled image directly.
func TestPilafLoadMatchesStagedPut(t *testing.T) {
	opts := DefaultOptions(3000, 512)
	opts.BuffersPerClass = 3000
	settled := newPilafEnv(t, opts, model.SoftwarePRISM)
	staged := newPilafEnv(t, opts, model.SoftwarePRISM)
	// 2600 inserts cross slab boundaries (SlabBytes / 536 largest entries a slab);
	// every 7th key is first loaded short, then reloaded at full size,
	// shorter still and at full size again, always in the key's one extent.
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
			// Drained put by put: a reload rewrites the extent in place,
			// where a longer earlier put's delayed stores would still land.
			staged.e.Run()
		}
	}
	if fired := drain(settled.e); fired != 0 {
		t.Fatalf("Load scheduled %d events", fired)
	}
	if spaceChecksum(settled.srv.host.Space()) != spaceChecksum(staged.srv.host.Space()) {
		t.Fatal("settled load and drained staged puts left different memory")
	}
	a, b := settled.srv.extents, staged.srv.extents
	if a.Len() != b.Len() || !slices.Equal(a.Slabs(), b.Slabs()) {
		t.Fatal("settled load and staged puts left different free lists")
	}
	if handedOut(a) != 2600 || len(a.Slabs()) < 3 {
		t.Fatalf("the load must pop one extent a key and cross a slab boundary: %d popped, %d slabs",
			handedOut(a), len(a.Slabs()))
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
	srv := AttachPilafServer(nic, tmpl.srv.meta)
	cli := NewPilafClient(rdma.NewClient(net, "cli").Connect(nic), srv.Meta(), params.PilafCRCCost)
	return &pilafFork{e: e, srv: srv, cli: cli}
}

func (f *pilafFork) run(fn func(p *sim.Proc)) {
	f.e.Go("t", fn)
	f.e.Run()
}

// pilafImage is a loaded Pilaf store's image: its NIC's memory and free
// list, and the server whose memory the capture sealed (its free list is
// the template's as it stood).
type pilafImage struct {
	nic *rdma.ServerTemplate
	srv *PilafServer
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
	return pilafImage{v.nic.Capture(), v.srv}
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
	if parentRegions != 2 || tmpl.srv.extents.Len() != 0 {
		t.Fatalf("template: %d regions, %d extents available; want the hash table and one full slab",
			parentRegions, tmpl.srv.extents.Len())
	}

	var tables [2][]byte
	var bases [2]memory.Addr
	for i := range tables {
		f := newPilafFork(tmpl, int64(10+i)) // seeds differ; addresses must not
		f.run(func(p *sim.Proc) {
			for k := loaded; k < loaded+40; k++ {
				if err := f.cli.Put(k, make([]byte, 100+k%50)); err != nil {
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
		if slabs := f.srv.extents.Slabs(); len(slabs) != 2 || slabs[1].Base != bases[i] {
			t.Fatalf("instance %d pops from slabs %v, not from the slab it carved at %#x", i, slabs, bases[i])
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

// An instance's PUTs — an overwrite and inserts — are invisible to the
// template and to a sibling instance, and every loaded key stays readable
// beside the inserted ones. A key outside the table is refused.
func TestPilafForkIndexIsolation(t *testing.T) {
	const loaded, inserted, valueSize = 300, 150, 64
	opts := DefaultOptions(512, valueSize)
	tmpl := loadedPilafTemplate(t, opts, loaded, valueSize)
	parent := tmpl.nic.Snapshot().Space()
	parentSum := spaceChecksum(parent)

	writer, sibling := newPilafFork(tmpl, 1), newPilafFork(tmpl, 2)
	newValue := func(k int64) []byte { return bytes.Repeat([]byte{byte(k) ^ 0xff}, valueSize) }
	writer.run(func(p *sim.Proc) {
		if err := writer.cli.Put(3, newValue(3)); err != nil {
			t.Error(err)
		}
		for k := int64(loaded); k < loaded+inserted; k++ {
			if err := writer.cli.Put(k, newValue(k)); err != nil {
				t.Errorf("insert %d: %v", k, err)
			}
		}
		if err := writer.cli.Put(opts.NSlots, newValue(opts.NSlots)); err == nil {
			t.Errorf("insert of key %d, outside the table, succeeded", opts.NSlots)
		}
		for k := int64(0); k < loaded+inserted; k++ {
			want := bytes.Repeat([]byte{byte(k)}, valueSize)
			if k == 3 || k >= loaded {
				want = newValue(k)
			}
			if got, err := writer.cli.Get(k); err != nil || !bytes.Equal(got, want) {
				t.Errorf("writer: key %d reads back wrong (err %v)", k, err)
			}
		}
	})
	sibling.run(func(p *sim.Proc) {
		if got, err := sibling.cli.Get(3); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{3}, valueSize)) {
			t.Errorf("sibling sees the writer's overwrite of key 3 (err %v)", err)
		}
		if _, err := sibling.cli.Get(loaded); err != ErrNotFound {
			t.Errorf("sibling sees the writer's insert of key %d: %v", loaded, err)
		}
		if err := sibling.cli.Put(loaded, newValue(loaded)); err != nil {
			t.Error(err)
		}
	})
	if spaceChecksum(parent) != parentSum {
		t.Fatal("an instance's PUT wrote the template's memory")
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
		slot, err := s.host.Space().Read(s.meta.Key, s.meta.HashBase+memory.Addr(key*pilafSlotSize), pilafSlotSize)
		if err != nil {
			t.Fatal(err)
		}
		_, ptr, length, _ := pilafDecodeSlot(slot)
		entry, err = s.host.Space().Read(s.meta.Key, ptr, length)
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
	// Loaded short, the key's first overwrite is longer (a new slot image
	// naming the same extent); its second is as long (a new entry image of
	// the same length).
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

// A key keeps the one extent its first store popped: a key whose values
// alternate between the largest size and small ones rewrites it in place
// every time, so a store with room for BuffersPerClass entries never
// hands out a second.
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
				if err := c.Put(1, make([]byte, n)); err != nil {
					t.Errorf("round %d, %d-byte value: %v", i, n, err)
					return
				}
			}
		}
	})
	v.e.Run()
	if n := handedOut(v.srv.extents); n != 1 {
		t.Fatalf("the key took %d extents, want it to keep one", n)
	}
}

// A refused PUT changes nothing: an acknowledged PUT reads back, and no
// GET reports another key's entry. With room for one entry, key 1's
// full-size overwrite rewrites its extent in place and key 2 finds the
// store full; key 1's extent must never reach the free list, where key 2
// would take it.
func TestPilafRefusedPutKeepsKey(t *testing.T) {
	opts := smallOpts()
	opts.BuffersPerClass = 1
	v := newPilafEnv(t, opts, model.HardwareRDMA)
	c := v.client()
	large := bytes.Repeat([]byte{'b'}, opts.MaxValue)
	v.e.Go("t", func(p *sim.Proc) {
		acked := map[int64][]byte{}
		for i, op := range []struct {
			key   int64
			value []byte
		}{{1, []byte("a")}, {1, large}, {2, []byte("c")}} {
			err := c.Put(op.key, op.value)
			if err == nil {
				acked[op.key] = op.value
			}
			if want := op.key == 1; (err == nil) != want {
				t.Errorf("PUT %d of key %d: %v, want it to succeed %v", i, op.key, err, want)
			}
		}
		for _, k := range []int64{1, 2} {
			got, err := c.Get(k)
			switch want, ok := acked[k]; {
			case ok && (err != nil || !bytes.Equal(got, want)):
				t.Errorf("key %d: acknowledged PUT reads back %q, %v", k, got, err)
			case !ok && err != ErrNotFound:
				t.Errorf("key %d: refused PUT reads back %q, %v; want ErrNotFound", k, got, err)
			}
		}
	})
	v.e.Run()
}

// Two clients PUT the same absent key at the same instant: the first PUT's
// claim of the slot, stored ahead of its tear-delayed stores, sends the
// second to the same extent, so the store hands out one extent, not two
// with one leaked, and the key reads back one of the two values.
func TestPilafRacingFirstPutsClaimOneExtent(t *testing.T) {
	const key = 5
	v := newPilafEnv(t, smallOpts(), model.HardwareRDMA)
	if err := v.srv.Load(0, []byte("carves the first slab")); err != nil {
		t.Fatal(err)
	}
	before := v.srv.extents.Len()
	values := [][]byte{bytes.Repeat([]byte{'a'}, 64), bytes.Repeat([]byte{'b'}, 64)}
	for i, value := range values {
		c := v.client()
		v.e.Go("put", func(p *sim.Proc) {
			if err := c.Put(key, value); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		})
	}
	v.e.Run()
	if got := before - v.srv.extents.Len(); got != 1 || len(v.srv.extents.Slabs()) != 1 {
		t.Fatalf("two racing first PUTs of one key took %d extents, want 1", got)
	}
	c := v.client()
	v.e.Go("get", func(p *sim.Proc) {
		got, err := c.Get(key)
		if err != nil || !(bytes.Equal(got, values[0]) || bytes.Equal(got, values[1])) {
			t.Errorf("key %d reads back %q, %v; want one of the PUT values", key, got, err)
		}
	})
	v.e.Run()
}
