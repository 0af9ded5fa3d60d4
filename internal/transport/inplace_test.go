package transport_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/transport"
	"prism/internal/wire"
)

// The live server stages every response in place: each op executes
// straight into the frame it flushes. This test drives every opcode and
// outcome through that path over a checked socket (CheckedConn), which
// holds every staged frame to wire.AppendResponse of what it decodes to,
// one result per op, and compares what arrives with the results the
// executor's semantics define.

// Layout of the test region, offsets from its base.
const (
	ipPattern    = 0     // ipPatternLen bytes of pattern(i)
	ipNullCell   = 8192  // a <ptr,bound> whose pointer is nil
	ipCASCell    = 8256  // 16 bytes: tag u64 BE | value u64
	ipClassic    = 8320  // u64 LE, classic CAS target
	ipFetchAdd   = 8384  // u64 LE, FETCH_ADD target
	ipWriteDst   = 8448  // WRITE target
	ipListHead   = 8512  // pointer to the first list node
	ipNode1      = 8576  // list node: next u64 LE | key u64 BE | 8 bytes
	ipNode2      = 8640  // the node CHASE matches
	ipScanTable  = 9216  // ipScanSlots <ptr,bound> slots, the first ipScanFull set
	ipScanData   = 12288 // 64-byte entries the slots point to
	ipRegionLen  = 16384 // whole region
	ipPatternLen = 8000  // pattern bytes
	ipEntryLen   = 40    // bytes per scanned entry
	ipScanSlots  = 8     // slots in the table
	ipScanFull   = 5     // leading slots that hold an entry
	ipFreeList   = 1     // free list ALLOCATE pops from, room for one buffer
	ipBufSize    = 64    // its buffer size
	ipChaseKey   = 2     // the key node 2 carries
	ipChaseLen   = 24    // CHASE payload cap
	ipCASTag     = 1     // the CAS cell's tag
	ipClassicV   = 7     // classic CAS cell's value
	ipFetchAddV  = 40    // FETCH_ADD cell's value
)

func pattern(i int) byte { return byte(i*7 + i>>8) }

// inPlaceServer provisions the region, the free list and an echoing RPC
// handler (with reused reply scratch, as real handlers have), and
// returns the server with the region.
func inPlaceServer(t *testing.T) (*transport.Server, *memory.Region) {
	t.Helper()
	ts := transport.NewServer()
	sp := ts.Space()
	r, err := sp.Register(ipRegionLen)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	b, err := sp.WriteView(r.Key, r.Base, ipRegionLen)
	if err != nil {
		t.Fatalf("WriteView: %v", err)
	}
	for i := 0; i < ipPatternLen; i++ {
		b[ipPattern+i] = pattern(i)
	}
	binary.BigEndian.PutUint64(b[ipCASCell:], ipCASTag)
	binary.LittleEndian.PutUint64(b[ipCASCell+8:], 0x1111)
	binary.LittleEndian.PutUint64(b[ipClassic:], ipClassicV)
	binary.LittleEndian.PutUint64(b[ipFetchAdd:], ipFetchAddV)
	binary.LittleEndian.PutUint64(b[ipListHead:], uint64(r.Base+ipNode1))
	binary.LittleEndian.PutUint64(b[ipNode1:], uint64(r.Base+ipNode2))
	binary.BigEndian.PutUint64(b[ipNode1+8:], 1)
	binary.BigEndian.PutUint64(b[ipNode2+8:], ipChaseKey)
	copy(b[ipNode2+16:], "payload!")
	for i := 0; i < ipScanFull; i++ {
		entry := ipScanData + 64*i
		binary.LittleEndian.PutUint64(b[ipScanTable+16*i:], uint64(r.Base)+uint64(entry))
		binary.LittleEndian.PutUint64(b[ipScanTable+16*i+8:], ipEntryLen)
		for j := 0; j < ipEntryLen; j++ {
			b[entry+j] = byte(i<<4 | j)
		}
	}
	ts.AddFreeList(alloc.NewFreeList(ipFreeList, ipBufSize, r.Key, sp, 1))
	var reply []byte
	ts.SetRPCHandler(func(payload []byte) ([]byte, time.Duration) {
		reply = append(append(reply[:0], "echo:"...), payload...)
		return reply, 0
	})
	return ts, r
}

func TestInPlaceResponsesAreCanonical(t *testing.T) {
	ts, r := inPlaceServer(t)
	cEnd, sEnd := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); ts.ServeConn(transport.CheckedConn(t, sEnd)) }()
	c, err := transport.NewClientConn(cEnd)
	if err != nil {
		t.Fatalf("NewClientConn: %v", err)
	}
	defer func() {
		c.Close()
		<-served
	}()
	cn, err := c.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}

	k, base := r.Key, r.Base
	at := func(off int) memory.Addr { return base + memory.Addr(off) }
	patternAt := func(off, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = pattern(off + i)
		}
		return p
	}
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	ok := func(data []byte) wire.Result { return wire.Result{Status: wire.StatusOK, Data: data} }

	casCell := func(tag uint64, val uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, tag), val)
	}
	tagMask, valMask := prism.FieldMask(16, 0, 8), prism.FieldMask(16, 8, 8)

	chaseMatch := binary.BigEndian.AppendUint64(nil, ipChaseKey)
	chaseProg := prism.AppendProgram(nil, &prism.Program{Kind: prism.ProgChaseList, MaxSteps: 8, MatchOff: 8}, chaseMatch)
	node2 := make([]byte, ipChaseLen)
	binary.BigEndian.PutUint64(node2[8:], ipChaseKey)
	copy(node2[16:], "payload!")
	scanProg := func(start uint64) []byte {
		return prism.AppendProgram(nil, &prism.Program{Stride: 16, StartIdx: start, NSlots: ipScanSlots}, nil)
	}
	var packed []byte
	for i := 0; i < ipScanFull; i++ {
		packed = binary.LittleEndian.AppendUint32(packed, ipEntryLen)
		for j := 0; j < ipEntryLen; j++ {
			packed = append(packed, byte(i<<4|j))
		}
	}

	// A chain whose payloads outgrow the staging buffer mid-request: every
	// earlier response is smaller than one of its reads.
	var bigOps []wire.Op
	var bigWant []wire.Result
	for off := 0; off+4000 <= ipPatternLen; off += 997 {
		bigOps = append(bigOps, prism.Read(k, at(off), 4000))
		bigWant = append(bigWant, ok(patternAt(off, 4000)))
	}

	cases := []struct {
		name string
		ops  []wire.Op
		want []wire.Result
	}{
		{"read", []wire.Op{prism.Read(k, at(3), 100)}, []wire.Result{ok(patternAt(3, 100))}},
		{"bounded-read-of-null-naks",
			[]wire.Op{prism.ReadBounded(k, at(ipNullCell), 64)},
			[]wire.Result{{Status: wire.StatusNAKAccess}}},
		// The range is checked before the payload is carved: sized first,
		// this READ's buffer would be 1 TiB and kill the server.
		{"read-out-of-region-naks",
			[]wire.Op{prism.Read(k, at(ipRegionLen-8), 1<<40)},
			[]wire.Result{{Status: wire.StatusNAKAccess}}},
		{"write-then-read",
			[]wire.Op{prism.Write(k, at(ipWriteDst), []byte("hello")), prism.Read(k, at(ipWriteDst), 5)},
			[]wire.Result{ok(nil), ok([]byte("hello"))}},
		{"cas-succeeds",
			[]wire.Op{prism.CAS(k, at(ipCASCell), wire.CASEq, casCell(ipCASTag, 0x2222), tagMask, valMask)},
			[]wire.Result{ok(casCell(ipCASTag, 0x1111))}},
		{"cas-fails-with-previous-value",
			[]wire.Op{prism.CAS(k, at(ipCASCell), wire.CASEq, casCell(ipCASTag+1, 0x3333), tagMask, valMask)},
			[]wire.Result{{Status: wire.StatusCASFailed, Data: casCell(ipCASTag, 0x2222)}}},
		{"classic-cas",
			[]wire.Op{prism.ClassicCAS(k, at(ipClassic), ipClassicV, 9)},
			[]wire.Result{ok(le(ipClassicV))}},
		{"fetch-add",
			[]wire.Op{{Code: wire.OpFetchAdd, RKey: k, Target: at(ipFetchAdd), Data: le(2)}, prism.Read(k, at(ipFetchAdd), 8)},
			[]wire.Result{ok(le(ipFetchAddV)), ok(le(ipFetchAddV + 2))}},
		{"chase",
			[]wire.Op{prism.Chase(k, at(ipListHead), chaseProg, wire.CASEq, nil, ipChaseLen)},
			[]wire.Result{{Status: wire.StatusOK, Addr: at(ipNode2), Data: node2}}},
		{"full-scan",
			[]wire.Op{prism.Scan(k, at(ipScanTable), scanProg(0), 4096)},
			[]wire.Result{{Status: wire.StatusOK, Addr: ipScanSlots, Data: packed}}},
		{"empty-scan-window",
			[]wire.Op{prism.Scan(k, at(ipScanTable), scanProg(ipScanFull), 4096)},
			[]wire.Result{{Status: wire.StatusOK, Addr: ipScanSlots}}},
		{"conditional-skipped",
			[]wire.Op{prism.ReadBounded(k, at(ipNullCell), 64), prism.Conditional(prism.Read(k, at(0), 8)), prism.Conditional(prism.Read(k, at(8), 8))},
			[]wire.Result{{Status: wire.StatusNAKAccess}, {Status: wire.StatusNotExecuted}, {Status: wire.StatusNotExecuted}}},
		{"chain-outgrows-staging", bigOps, bigWant},
		{"rpc-reply", []wire.Op{prism.Send([]byte("ping"))}, []wire.Result{ok([]byte("echo:ping"))}},
		{"allocate", []wire.Op{prism.Allocate(ipFreeList, []byte("entry"))}, nil},
		{"allocate-rnr", []wire.Op{prism.Allocate(ipFreeList, []byte("more"))}, []wire.Result{{Status: wire.StatusRNR}}},
	}
	for _, tc := range cases {
		got, err := cn.Issue(tc.ops)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := tc.want
		if tc.name == "allocate" {
			// The address is the first buffer of the slab the list carved.
			g := ts.Space().Guard()
			g.Lock()
			slab := ts.FreeList(ipFreeList).Slabs()[0].Base
			g.Unlock()
			want = []wire.Result{{Status: wire.StatusOK, Addr: slab}}
		}
		gotB := wire.AppendResponse(nil, &wire.Response{Results: got})
		wantB := wire.AppendResponse(nil, &wire.Response{Results: want})
		if !bytes.Equal(gotB, wantB) {
			t.Errorf("%s: results %+v, want %+v", tc.name, got, want)
		}
	}
}
