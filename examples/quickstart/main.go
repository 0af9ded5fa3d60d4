// Quickstart: a primitive-level tour of the PRISM interface (Table 1 of
// the paper) on a two-machine simulated cluster — an indirect bounded
// read, a free-list allocation, an enhanced compare-and-swap, and finally
// the canonical chained out-of-place update (WRITE tag to temp buffer,
// ALLOCATE redirecting the new address, CAS the <tag,addr> pair) that the
// paper's applications are built from.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"prism"
	"prism/internal/alloc"
	"prism/internal/memory"
	iprism "prism/internal/prism"
	"prism/internal/wire"
)

func main() {
	c := prism.NewCluster(prism.ClusterConfig{Seed: 1})
	srv := c.NewServer("server", prism.SoftwarePRISM)

	// Server-side setup: register a region, post a free list, seed a
	// pointer and a <tag|addr> metadata cell.
	space := srv.Space()
	reg, err := space.Register(1 << 16)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetConnTempKey(reg.Key)

	srv.AddFreeList(alloc.NewFreeList(1, 256, reg.Key, space, 64))

	// A value and a bounded pointer to it.
	greeting := []byte("hello from server memory")
	valueAddr := reg.Base + 4096
	if err := space.Write(reg.Key, valueAddr, greeting); err != nil {
		log.Fatal(err)
	}
	ptrCell := reg.Base // <ptr, bound>
	if err := space.WriteBoundedPtr(reg.Key, ptrCell, memory.BoundedPtr{Ptr: valueAddr, Bound: uint64(len(greeting))}); err != nil {
		log.Fatal(err)
	}
	// A <tag | addr> metadata cell for the chained update.
	metaCell := reg.Base + 64
	seed := make([]byte, 16)
	iprism.PutBE64(seed, 0, 1) // tag 1
	iprism.PutLE64(seed, 8, uint64(valueAddr))
	if err := space.Write(reg.Key, metaCell, seed); err != nil {
		log.Fatal(err)
	}

	machine := c.NewClientMachine("client")
	conn := machine.Connect(srv)

	c.Go("quickstart", func(p *prism.Proc) {
		// 1. Indirect bounded READ: one round trip follows the pointer and
		//    clamps the length to the stored bound (§3.1).
		res := conn.Issue(p, iprism.ReadBounded(reg.Key, ptrCell, 512))
		fmt.Printf("indirect bounded READ -> %q  (status %v, RTT so far %v)\n",
			res[0].Data, res[0].Status, p.Now())

		// 2. ALLOCATE: pop a buffer from the server-posted free list and
		//    write into it, in one round trip (§3.2).
		res = conn.Issue(p, iprism.Allocate(1, []byte("freshly allocated")))
		bufAddr := res[0].Addr
		fmt.Printf("ALLOCATE -> buffer at %#x (status %v)\n", bufAddr, res[0].Status)

		// 3. Enhanced CAS: compare the tag field with GT, swap tag+addr
		//    (§3.3). Tag 2 > 1, so it succeeds and returns the old pair.
		data := make([]byte, 16)
		iprism.PutBE64(data, 0, 2)
		iprism.PutLE64(data, 8, uint64(bufAddr))
		res = conn.Issue(p, iprism.CAS(reg.Key, metaCell, wire.CASGt, data,
			iprism.FieldMask(16, 0, 8), iprism.FullMask(16)))
		fmt.Printf("enhanced CAS(GT tag) -> status %v, previous tag %d\n",
			res[0].Status, iprism.BE64(res[0].Data, 0))

		// A stale tag is rejected without modifying the cell.
		stale := make([]byte, 16)
		iprism.PutBE64(stale, 0, 1)
		res = conn.Issue(p, iprism.CAS(reg.Key, metaCell, wire.CASGt, stale,
			iprism.FieldMask(16, 0, 8), iprism.FullMask(16)))
		fmt.Printf("enhanced CAS(stale tag) -> status %v (correctly rejected)\n", res[0].Status)

		// 4. Operation chaining (§3.4): the paper's out-of-place update in
		//    ONE round trip — write tag 3 to the connection's temp buffer,
		//    allocate the new version redirecting its address next to the
		//    tag, and conditionally CAS the <tag|addr> pair from the temp
		//    buffer (data-indirect).
		tagBytes := make([]byte, 8)
		iprism.PutBE64(tagBytes, 0, 3)
		start := p.Now()
		res = conn.Issue(p,
			iprism.Write(conn.TempKey, conn.TempAddr, tagBytes),
			iprism.Conditional(iprism.RedirectTo(iprism.Allocate(1, []byte("chained new version")), conn.TempKey, conn.TempAddr+8)),
			iprism.Conditional(iprism.CASIndirectData(reg.Key, metaCell, wire.CASGt, conn.TempAddr,
				iprism.FieldMask(16, 0, 8), iprism.FullMask(16))),
		)
		fmt.Printf("chain WRITE+ALLOCATE+CAS -> statuses %v %v %v in one %v round trip\n",
			res[0].Status, res[1].Status, res[2].Status, p.Now().Sub(start))

		// Verify: an indirect read through the metadata cell's addr field
		// now returns the chained version.
		res = conn.Issue(p, iprism.ReadIndirect(reg.Key, metaCell+8, 19))
		fmt.Printf("follow-up indirect READ -> %q\n", res[0].Data)
	})
	c.Run()
}
