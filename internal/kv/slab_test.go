package kv

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net"
	"sync"
	"testing"
	"time"

	"prism/internal/alloc"
	"prism/internal/check"
	"prism/internal/fabric"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
	"prism/internal/transport"
)

// Tests of demand-carved free lists as the stores see them: what a store
// registers, that forks of one template agree, that carving under the
// guard is safe between live sockets.

func registeredBytes(space *memory.Space) (n uint64) {
	for _, r := range space.Regions() {
		n += r.Len
	}
	return n
}

// slabbedBytes is what a list of size-byte buffers has registered once n
// of them have been popped, its cap out of reach: whole slabs of whole
// buffers.
func slabbedBytes(n int64, size uint64) uint64 {
	perSlab := alloc.SlabBytes / size
	return (uint64(n) + perSlab - 1) / perSlab * perSlab * size
}

// footprintShapes are the stores the footprint tests stand up: the
// paper's object and the GET workloads', and one of many slabs.
var footprintShapes = []struct {
	keys      int64
	valueSize int
}{{4096, 512}, {4096, 128}, {65536, 512}}

// checkFootprint holds a store of keys entries of entryBytes each to what
// its data costs, whatever buffer sizes it picked: registered bytes are
// the hash table, the entries with a tenth on top, and one slab.
func checkFootprint(t *testing.T, space *memory.Space, hashBytes uint64, keys int64, entryBytes uint64) {
	t.Helper()
	got, data := registeredBytes(space), uint64(keys)*entryBytes
	if limit := hashBytes + data + data/10 + alloc.SlabBytes; got > limit {
		t.Errorf("%d entries of %d bytes: the store registers %d bytes, want at most %d (hash table + 1.10 x %d entry bytes + one slab)",
			keys, entryBytes, got, limit, data)
	}
}

// A loaded store registers its hash table and the slabs its objects fill —
// in buffers no larger than the objects — not BuffersPerClass buffers in
// every class.
func TestFootprintFollowsLoad(t *testing.T) {
	for _, shape := range footprintShapes {
		keys, valueSize := shape.keys, shape.valueSize
		ts := transport.NewServer()
		srv, err := NewServerOn(ts, DefaultOptions(keys, valueSize))
		if err != nil {
			t.Fatal(err)
		}
		hashBytes := registeredBytes(ts.Space())
		if want := uint64(keys * slotSize); hashBytes != want {
			t.Fatalf("an empty store registers %d bytes, want the %d-byte hash table only", hashBytes, want)
		}
		value := make([]byte, valueSize)
		for k := int64(0); k < keys; k++ {
			if err := srv.Load(k, value); err != nil {
				t.Fatal(err)
			}
		}
		class, err := srv.meta.classFor(entrySize(valueSize))
		if err != nil {
			t.Fatal(err)
		}
		var bufSize uint64
		for _, info := range srv.meta.FreeLists {
			fl := ts.FreeList(info.ID)
			if info.ID == class {
				bufSize = info.BufSize
			} else if len(fl.Slabs()) != 0 {
				t.Errorf("untouched %d-byte class owns %d slabs", info.BufSize, len(fl.Slabs()))
			}
		}
		if bufSize != entrySize(valueSize) {
			t.Errorf("%d-byte entries, the store's largest, sit in %d-byte buffers", entrySize(valueSize), bufSize)
		}
		if got, want := registeredBytes(ts.Space()), hashBytes+slabbedBytes(keys, bufSize); got != want {
			t.Errorf("%d keys of %d bytes: the loaded store registers %d bytes, want %d (hash table + whole slabs of %d-byte buffers)",
				keys, valueSize, got, want, bufSize)
		}
		checkFootprint(t, ts.Space(), hashBytes, keys, entrySize(valueSize))
	}
}

func spaceChecksum(space *memory.Space) uint32 {
	h := crc32.NewIEEE()
	for _, r := range space.Regions() {
		b, err := space.Peek(r.Key, r.Base, r.Len)
		if err != nil {
			panic(err)
		}
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(r.Base))
		binary.LittleEndian.PutUint64(hdr[8:], r.Len)
		h.Write(hdr[:])
		h.Write(b)
	}
	return h.Sum32()
}

// Two instances of one template carve the same addresses in their own
// forks — the PUTs' shorter entries fall in classes the load never
// touched, so each instance's first PUT carves — and the sealed parent
// never changes.
func TestTemplateInstancesCarveIdenticalAddresses(t *testing.T) {
	const keys, valueSize = 2048, 400 // the load carves only the top, 416-byte class
	params := model.Default().WithNetwork(model.Rack)
	build := sim.NewEngine(1)
	nic := rdma.NewServer(fabric.New(build, params), "build", model.SoftwarePRISM)
	srv, err := NewServerOn(nic, DefaultOptions(keys, valueSize))
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte{7}, valueSize)
	for k := int64(0); k < keys; k++ {
		if err := srv.Load(k, value); err != nil {
			t.Fatal(err)
		}
	}
	tmpl, meta := nic.Capture(), srv.Meta()
	parent := tmpl.Snapshot().Space()
	parentRegions, parentSum := len(parent.Regions()), spaceChecksum(parent)

	var slots [2][]byte
	var regions [2]int
	for i := range slots {
		e := sim.NewEngine(int64(10 + i)) // seeds differ; addresses must not
		net := fabric.New(e, params)
		fork := rdma.NewServerFromTemplate(net, "kv", model.SoftwarePRISM, tmpl)
		inst := AttachServer(fork, meta)
		c := NewClient(rdma.NewClient(net, "cli").Connect(fork), inst.Meta(), 1)
		e.Go("put", func(p *sim.Proc) {
			for k := int64(0); k < 40; k++ {
				if err := c.Put(k*3, value[:100+k]); err != nil {
					t.Errorf("instance %d put %d: %v", i, k, err)
				}
			}
		})
		e.Run()
		space := fork.Space()
		hash, err := space.Read(inst.meta.Key, inst.meta.HashBase, uint64(keys*slotSize))
		if err != nil {
			t.Fatal(err)
		}
		slots[i], regions[i] = hash, len(space.Regions())
		if regions[i] <= parentRegions {
			t.Fatalf("instance %d carved nothing: %d regions, the template has %d", i, regions[i], parentRegions)
		}
	}
	if !bytes.Equal(slots[0], slots[1]) || regions[0] != regions[1] {
		t.Fatal("two instances of one template installed different buffer addresses")
	}
	if len(parent.Regions()) != parentRegions || spaceChecksum(parent) != parentSum {
		t.Fatal("an instance mutated the sealed template space")
	}
}

// Two live sockets insert and overwrite concurrently with buffers large
// enough that their ALLOCATEs carve several slabs between them, under
// the space guard of whichever socket runs dry first. Run under -race.
// Every key must read back, and the history of the contended keys must be
// linearizable.
func TestLiveSocketsPutAcrossSlabBoundary(t *testing.T) {
	const (
		writers = 2
		inserts = 300 // per writer, each to a key of its own
		hotKeys = 4   // overwritten and read by both
		// Buffers of a sixteenth of a slab (entries carry a 16-byte
		// header): the inserts alone fill dozens of slabs.
		valueSize = alloc.SlabBytes/16 - 16
	)
	opts := DefaultOptions(1024, valueSize)
	ts := transport.NewServer()
	srv, err := NewServerOn(ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	// value is the bytes writer w's seq-th write stores; id recovers
	// (w, seq) from what a GET returns.
	value := func(w, seq int) []byte {
		b := bytes.Repeat([]byte{byte(w*31 + seq)}, valueSize)
		binary.LittleEndian.PutUint32(b, uint32(w))
		binary.LittleEndian.PutUint32(b[4:], uint32(seq))
		return b
	}
	id := func(b []byte) [2]int {
		return [2]int{int(binary.LittleEndian.Uint32(b)), int(binary.LittleEndian.Uint32(b[4:]))}
	}
	const loader = 99
	for k := int64(0); k < hotKeys; k++ {
		if err := srv.Load(k, value(loader, 0)); err != nil {
			t.Fatal(err)
		}
	}

	type obs struct {
		key      int64
		write    [2]int // the (writer, seq) written or observed
		isWrite  bool
		tag      uint64 // writes only
		inv, rsp sim.Time
	}
	var (
		wg      sync.WaitGroup
		history [writers][]obs
		start   = time.Now()
		served  = make(chan struct{}, writers)
		clients []*transport.Client
	)
	now := func() sim.Time { return sim.Time(time.Since(start)) }
	for w := 0; w < writers; w++ {
		cEnd, sEnd := net.Pipe()
		go func() { ts.ServeConn(sEnd); served <- struct{}{} }()
		tc, err := transport.NewClientConn(cEnd)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, tc)
		conn, err := tc.Connect()
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn, srv.Meta(), uint16(w+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < inserts; i++ {
				if err := c.Put(int64(hotKeys+w*inserts+i), value(w, i)); err != nil {
					t.Errorf("writer %d insert %d: %v", w, i, err)
					return
				}
				hot := int64(i % hotKeys)
				o := obs{key: hot, write: [2]int{w, i}, isWrite: true, inv: now()}
				if err := c.Put(hot, value(w, i)); err != nil {
					t.Errorf("writer %d overwrite %d: %v", w, i, err)
					return
				}
				o.rsp, o.tag = now(), c.tagClock<<16|uint64(c.clientID)
				history[w] = append(history[w], o)
				r := obs{key: hot, inv: now()}
				got, err := c.Get(hot)
				if err != nil {
					t.Errorf("writer %d get %d: %v", w, hot, err)
					return
				}
				r.rsp, r.write = now(), id(got)
				history[w] = append(history[w], r)
			}
			if err := c.FlushFrees(); err != nil {
				t.Errorf("writer %d flush: %v", w, err)
			}
			for i := 0; i < inserts; i++ {
				got, err := c.Get(int64(hotKeys + w*inserts + i))
				if err != nil || !bytes.Equal(got, value(w, i)) {
					t.Errorf("writer %d: inserted key %d reads back wrong (err %v)", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, tc := range clients {
		tc.Close()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("ServeConn did not return after client close")
		}
	}

	const initialTag = 1 // Load's tag
	tags := map[[2]int]uint64{{loader, 0}: initialTag}
	for w := range history {
		for _, o := range history[w] {
			if o.isWrite {
				tags[o.write] = o.tag
			}
		}
	}
	regs := make(map[int64]*check.RegisterHistory)
	for w := range history {
		for _, o := range history[w] {
			tag, ok := tags[o.write]
			if !ok {
				t.Fatalf("key %d: read observed (writer %d, seq %d), which nobody wrote", o.key, o.write[0], o.write[1])
			}
			if regs[o.key] == nil {
				regs[o.key] = &check.RegisterHistory{}
			}
			regs[o.key].Add(check.RegisterOp{IsWrite: o.isWrite, Tag: tag, Invoke: o.inv, Respond: o.rsp, Client: w})
		}
	}
	for k, h := range regs {
		if err := h.CheckLinearizable(initialTag); err != nil {
			t.Errorf("key %d: %v", k, err)
		}
	}

	class, err := srv.meta.classFor(entrySize(valueSize))
	if err != nil {
		t.Fatal(err)
	}
	if slabs := len(ts.FreeList(class).Slabs()); slabs < 3 {
		t.Fatalf("%d inserts of %d-byte buffers carved %d slabs; the test must cross a slab boundary", writers*inserts, valueSize, slabs)
	}
}
