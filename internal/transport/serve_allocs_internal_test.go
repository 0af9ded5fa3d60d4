package transport

import (
	"encoding/binary"
	"net"
	"testing"

	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/wire"
)

// TestServerScanAllocs pins that a warmed live 32 KiB SCAN allocates
// nothing on the server socket: the executor packs the entries straight
// into the staged response frame, which is reused across flushes. The
// client side is a bare framer over a net.Pipe, which allocates nothing
// either, so the process-wide count is the server's.
func TestServerScanAllocs(t *testing.T) {
	const (
		slots    = 64
		entries  = 32
		entryLen = 1020 // packed with its u32 length: 1 KiB
		budget   = 32 << 10
	)
	s := NewServer()
	sp := s.Space()
	r, err := sp.Register(slots*memory.BoundedPtrSize + entries*entryLen)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	data := r.Base + slots*memory.BoundedPtrSize
	for i := 0; i < entries; i++ {
		p := memory.BoundedPtr{Ptr: data + memory.Addr(i*entryLen), Bound: entryLen}
		if err := sp.WriteBoundedPtr(r.Key, r.Base+memory.Addr(2*i*memory.BoundedPtrSize), p); err != nil {
			t.Fatalf("WriteBoundedPtr: %v", err)
		}
	}

	cEnd, sEnd := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); s.ServeConn(sEnd) }()
	defer func() {
		cEnd.Close()
		<-served
	}()
	fr, fw := NewFrameReader(cEnd), NewFrameWriter(cEnd)
	if err := fw.Send(frameConnect, helloMagic); err != nil {
		t.Fatalf("connect: %v", err)
	}
	kind, body, err := fr.Next()
	if err != nil || kind != frameAccept {
		t.Fatalf("accept: kind=0x%02x err=%v", kind, err)
	}
	id, _, _, err := decodeAccept(body)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}

	prog := prism.AppendProgram(nil, &prism.Program{Stride: memory.BoundedPtrSize, NSlots: slots}, nil)
	req := &wire.Request{Conn: id, Ops: []wire.Op{prism.Scan(r.Key, r.Base, prog, budget)}}
	var resp wire.Response
	scan := func() {
		req.Seq++
		if err := fw.StageRequest(req); err != nil {
			t.Fatalf("StageRequest: %v", err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		kind, body, err := fr.Next()
		if err != nil || kind != frameResponse {
			t.Fatalf("response: kind=0x%02x err=%v", kind, err)
		}
		if err := wire.DecodeResponseAlias(&resp, body); err != nil {
			t.Fatalf("DecodeResponseAlias: %v", err)
		}
		res := &resp.Results[0]
		if res.Status != wire.StatusOK || len(res.Data) != budget ||
			binary.LittleEndian.Uint32(res.Data) != entryLen || res.Addr != slots {
			t.Fatalf("SCAN: status %v, %d bytes, cursor %d; want OK, %d bytes, cursor %d",
				res.Status, len(res.Data), res.Addr, budget, slots)
		}
	}
	for i := 0; i < 8; i++ {
		scan()
	}
	if n := testing.AllocsPerRun(100, scan); n != 0 {
		t.Errorf("a warmed 32 KiB SCAN allocates %.1f times per op, want 0", n)
	}
}
