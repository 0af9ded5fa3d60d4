package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"time"

	prismsim "prism"
	"prism/internal/alloc"
	"prism/internal/kv"
	"prism/internal/memory"
	"prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/transport"
	"prism/internal/wire"
)

// The PRISM-KV layout, as far as a client needs it to build requests
// from an exported kv.Meta: 24-byte slots [tag BE | ptr LE | bound LE]
// and object buffers [klen LE = 8 | key BE | value]. kv keeps these
// unexported; the benchmark restates them to build, outside kv, the op
// shapes kv.LiveClient issues.
const (
	slotSize    = 24
	entryHeader = 16
	chainHeader = 24 // chain node: [next LE | key BE | vlen LE | value]
	chaseDepth  = 8
)

var (
	slotTagMask  = prism.FieldMask(slotSize, 0, 8)
	slotFullMask = prism.FullMask(slotSize)
)

// shadow is a second, never-served copy of the store a workload runs
// against: same layout, same preloaded bytes. Stage costs and trace
// replays execute on it, so the live store is undisturbed. It also holds
// a depth-8 chain store for the CHASE stage.
type shadow struct {
	host      *transport.Server // provisioning surface only; Serve is never called
	space     *memory.Space
	meta      kv.Meta
	chain     kv.ChainMeta
	exec      *prism.Executor
	valueSize int
	temp      memory.Addr // a connection's temp buffer, the redirect target of PUT chains
	tag       uint64      // last tag a shadow PUT installed

	arena    []byte // response payload arena, as the server's sockets have
	entry    []byte
	pre      [slotSize]byte
	ptr      [8]byte
	prog     []byte
	match    [8]byte
	ops      [4]wire.Op
	results  [4]wire.Result
	opMeta   prism.OpMeta
	quiescer *alloc.Quiescer
}

func newShadow(seed int64, valueSize int) (*shadow, error) {
	host, store, err := newStore(seed, valueSize)
	if err != nil {
		return nil, err
	}
	val := make([]byte, valueSize)
	chain, err := kv.NewChainStoreOn(host, kv.ChainOptions{Buckets: nKeys / chaseDepth, Depth: chaseDepth, MaxValue: valueSize})
	if err != nil {
		return nil, err
	}
	for k := int64(0); k < nKeys; k++ {
		fillValue(val, seed, k, 0, 0)
		if err := chain.Load(k, val); err != nil {
			return nil, err
		}
	}
	s := &shadow{
		host: host, space: host.Space(), meta: store.Meta(), chain: chain.Meta(),
		exec: prism.NewExecutor(host.Space()), valueSize: valueSize,
		tag: 1 << 16, quiescer: alloc.NewQuiescer(),
	}
	for _, fl := range s.meta.FreeLists {
		s.exec.FreeLists[fl.ID] = host.FreeList(fl.ID)
	}
	s.exec.ReadAlloc = s.carve
	temp, err := s.space.RegisterShared(s.meta.Key, transport.ConnTempSize)
	if err != nil {
		return nil, err
	}
	s.temp = temp.Base
	return s, nil
}

// carve hands out response payload space from the arena, which
// execRequest resets per request.
func (s *shadow) carve(n uint64) []byte {
	if uint64(cap(s.arena)-len(s.arena)) < n {
		s.arena = make([]byte, 0, 2*cap(s.arena)+int(n))
	}
	off := len(s.arena)
	s.arena = s.arena[:off+int(n)]
	return s.arena[off:]
}

func (s *shadow) slotAddr(key int64) memory.Addr {
	return s.meta.HashBase + memory.Addr(key*slotSize)
}

func (s *shadow) entrySize() uint64 { return uint64(entryHeader + s.valueSize) }

// getOps is the GET request: one indirect bounded READ.
func (s *shadow) getOps(key int64) []wire.Op {
	s.ops[0] = prism.ReadBounded(s.meta.Key, s.slotAddr(key)+8, s.entrySize())
	return s.ops[:1]
}

// probeOps is a PUT's first round trip: the slot and the object behind it.
func (s *shadow) probeOps(key int64) []wire.Op {
	slot := s.slotAddr(key)
	s.ops[0] = prism.Read(s.meta.Key, slot, slotSize)
	s.ops[1] = prism.ReadBounded(s.meta.Key, slot+8, s.entrySize())
	return s.ops[:2]
}

// putOps is a PUT's second round trip: WRITE the new tag and bound to the
// temp buffer, ALLOCATE the object with its address redirected beside
// them, CAS the slot from the temp buffer if the tag is newer.
func (s *shadow) putOps(key int64, value []byte) []wire.Op {
	s.entry = append(s.entry[:0], 8, 0, 0, 0, 0, 0, 0, 0)
	s.entry = binary.BigEndian.AppendUint64(s.entry, uint64(key))
	s.entry = append(s.entry, value...)
	s.tag += 1 << 16
	prism.PutBE64(s.pre[:], 0, s.tag)
	prism.PutLE64(s.pre[:], 8, 0)
	prism.PutLE64(s.pre[:], 16, uint64(len(s.entry)))
	s.ops[0] = prism.Write(s.meta.Key, s.temp, s.pre[:])
	s.ops[1] = prism.Conditional(prism.RedirectTo(prism.Allocate(s.class(uint64(len(s.entry))), s.entry), s.meta.Key, s.temp+8))
	s.ops[2] = prism.Conditional(prism.CASIndirectDataBuf(&s.ptr, s.meta.Key, s.slotAddr(key), wire.CASGt, s.temp,
		slotTagMask, slotFullMask))
	return s.ops[:3]
}

// class is the smallest free list whose buffers hold n bytes.
func (s *shadow) class(n uint64) uint32 {
	for _, fl := range s.meta.FreeLists {
		if n <= fl.BufSize {
			return fl.ID
		}
	}
	panic(fmt.Sprintf("benchmark: no buffer class holds %d bytes", n))
}

// scanOps is one SCAN window from slot start.
func (s *shadow) scanOps(start int64) []wire.Op {
	p := prism.Program{NextOff: 8, Stride: slotSize, StartIdx: uint64(start), NSlots: uint64(s.meta.NSlots)}
	s.prog = prism.AppendProgram(s.prog[:0], &p, nil)
	s.ops[0] = prism.Scan(s.meta.Key, s.meta.HashBase, s.prog, scanBudget)
	return s.ops[:1]
}

// chaseOps is one CHASE down a whole depth-8 chain: the key at the tail
// of bucket.
func (s *shadow) chaseOps(bucket int64) []wire.Op {
	key := bucket*chaseDepth + chaseDepth - 1
	prism.PutBE64(s.match[:], 0, uint64(key))
	p := prism.Program{Kind: prism.ProgChaseList, MaxSteps: chaseDepth, MatchOff: 8, NextOff: 0}
	s.prog = prism.AppendProgram(s.prog[:0], &p, s.match[:])
	head := s.chain.HeadBase + memory.Addr(bucket*8)
	s.ops[0] = prism.Chase(s.chain.Key, head, s.prog, wire.CASEq, nil, chainHeader+uint64(s.valueSize))
	return s.ops[:1]
}

// execRequest executes a request's chain as a server socket does —
// conditional ops skip once a predecessor has failed — and returns the
// results, valid until the next call. A PUT chain's displaced buffer
// goes straight back to its free list: nothing else is in flight on a
// shadow.
func (s *shadow) execRequest(ops []wire.Op) []wire.Result {
	s.arena = s.arena[:0]
	res := s.results[:len(ops)]
	lastOK := true
	for i := range ops {
		if ops[i].Flags.Has(wire.FlagConditional) && !lastOK {
			res[i] = wire.Result{Status: wire.StatusNotExecuted}
			continue
		}
		s.exec.ExecInto(&ops[i], &res[i], &s.opMeta)
		lastOK = res[i].Status.OK()
	}
	if len(ops) == 3 && ops[1].Code == wire.OpAllocate && res[2].Status == wire.StatusOK {
		if old := prism.LE64(res[2].Data, 8); old != 0 {
			s.host.FreeList(s.class(prism.LE64(res[2].Data, 16))).Post(memory.Addr(old))
		}
	}
	return res
}

// primaryOps is the request a workload issues most, the shape the codec
// and framer stages are fed.
func (s *shadow) primaryOps(kind opKind, i int64) []wire.Op {
	key := i % nKeys
	switch kind {
	case kindPutMix:
		val := make([]byte, s.valueSize)
		fillValue(val, 0, key, 9, uint32(i))
		return s.putOps(key, val)
	case kindScan:
		return s.scanOps(key / 256 * 256)
	}
	return s.getOps(key)
}

// timeStage times fn, which does per units of work per call, and returns
// nanoseconds and heap allocations per unit: the median of five batches
// of about batch each. It stops at fn's first error.
func timeStage(batch time.Duration, per int, fn func() error) (ns, allocs float64, err error) {
	loop := func(iters int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	iters := 1
	for {
		d, err := loop(iters)
		if err != nil {
			return 0, 0, err
		}
		if d >= batch/5 || iters >= 1<<24 {
			iters = int(float64(iters)*float64(batch)/float64(d)) + 1
			break
		}
		iters *= 4
	}
	var batches []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for b := 0; b < 5; b++ {
		d, err := loop(iters)
		if err != nil {
			return 0, 0, err
		}
		batches = append(batches, float64(d)/float64(iters*per))
	}
	runtime.ReadMemStats(&ms1)
	return median(batches), float64(ms1.Mallocs-ms0.Mallocs) / float64(5*iters*per), nil
}

// loopReader is an endless stream of one frame repeated.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], l.frame[l.off:])
		n += c
		l.off = (l.off + c) % len(l.frame)
	}
	return n, nil
}

// writeBuffer keeps what was last written to it.
type writeBuffer struct{ b []byte }

func (w *writeBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b[:0], p...)
	return len(p), nil
}

// stageCosts times one exported function per stage of a verb's life, fed
// the op shapes a workload with this value size issues, and stores
// <stage>_ns and <stage>_allocs in m. kind selects the request the codec
// and framer stages carry; batch is how long one timed batch runs.
func stageCosts(m map[string]float64, valueSize int, kind opKind, batch time.Duration) error {
	s, err := newShadow(1, valueSize)
	if err != nil {
		return err
	}
	var firstErr error
	put := func(name string, per int, fn func() error) {
		ns, allocs, err := timeStage(batch, per, fn)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("stage %s: %w", name, err)
		}
		m[name+"_ns"], m[name+"_allocs"] = ns, allocs
	}
	var i int64

	// Codec and framer, on the workload's primary request and the
	// response the shadow gives it.
	req := wire.Request{Conn: 1, Seq: 1, Ops: s.primaryOps(kind, 0)}
	resp := wire.Response{Conn: 1, Seq: 1, Results: s.execRequest(req.Ops)}
	reqBytes := wire.AppendRequest(nil, &req)
	respBytes := wire.AppendResponse(nil, &resp)
	var reqFrame writeBuffer
	fw := transport.NewFrameWriter(&reqFrame)
	if err := fw.StageRequest(&req); err != nil {
		return err
	}
	if err := fw.Flush(); err != nil {
		return err
	}
	var enc []byte
	put("wire.encode_request", 1, func() error { enc = wire.AppendRequest(enc[:0], &req); return nil })
	fw = transport.NewFrameWriter(io.Discard)
	put("transport.frame_stage", 1, func() error {
		if err := fw.StageRequest(&req); err != nil {
			return err
		}
		return fw.Flush()
	})
	fr := transport.NewFrameReader(&loopReader{frame: reqFrame.b})
	put("transport.frame_next", 1, func() error { _, _, err := fr.Next(); return err })
	var dreq wire.Request
	put("wire.decode_request", 1, func() error { return wire.DecodeRequestAlias(&dreq, reqBytes) })
	put("wire.encode_response", 1, func() error { enc = wire.AppendResponse(enc[:0], &resp); return nil })
	var dresp wire.Response
	put("wire.decode_response", 1, func() error { return wire.DecodeResponseAlias(&dresp, respBytes) })

	// Memory and allocator.
	guard := s.space.Guard()
	put("memory.guard_lock", 1, func() error { guard.Lock(); guard.Unlock(); return nil })
	slot0, err := s.space.Read(s.meta.Key, s.slotAddr(0), slotSize)
	if err != nil {
		return err
	}
	obj0 := memory.Addr(prism.LE64(slot0, 8))
	put("memory.peek", 1, func() error { _, err := s.space.Peek(s.meta.Key, obj0, s.entrySize()); return err })
	val := make([]byte, valueSize)
	fillValue(val, 1, 0, 0, 0)
	put("memory.write", 1, func() error { return s.space.Write(s.meta.Key, obj0+entryHeader, val) })
	fl := s.host.FreeList(s.class(s.entrySize()))
	put("alloc.pop_recycle", 1, func() error {
		a, err := fl.Pop()
		if err != nil {
			return err
		}
		fl.Recycle(a)
		fl.FlushWhenQuiet(s.quiescer)
		return nil
	})

	// Executor, one opcode each.
	exec1 := func(op *wire.Op) (*wire.Result, error) {
		s.arena = s.arena[:0]
		s.exec.ExecInto(op, &s.results[0], &s.opMeta)
		if !s.results[0].Status.OK() {
			return nil, fmt.Errorf("%v returned %v", op.Code, s.results[0].Status)
		}
		return &s.results[0], nil
	}
	put("prism.exec_read", 1, func() error { i++; _, err := exec1(&s.getOps(i % nKeys)[0]); return err })
	wr := prism.Write(s.meta.Key, s.temp, make([]byte, slotSize))
	put("prism.exec_write", 1, func() error { _, err := exec1(&wr); return err })
	al := prism.Allocate(s.class(s.entrySize()), make([]byte, s.entrySize()))
	put("prism.exec_allocate", 1, func() error {
		res, err := exec1(&al)
		if err == nil {
			fl.Post(res.Addr)
		}
		return err
	})
	// The CAS re-installs slot 0's own pointer and bound under a tag
	// that grows each time, so GT always holds and the store's content
	// does not change.
	cas := prism.CAS(s.meta.Key, s.slotAddr(0), wire.CASGt, slot0, slotTagMask, slotFullMask)
	put("prism.exec_cas", 1, func() error {
		s.tag += 1 << 16
		prism.PutBE64(slot0, 0, s.tag)
		_, err := exec1(&cas)
		return err
	})
	put("prism.exec_chase_d8", 1, func() error {
		i++
		_, err := exec1(&s.chaseOps(i % (nKeys / chaseDepth))[0])
		return err
	})
	put("prism.exec_scan_32k", 1, func() error { i++; _, err := exec1(&s.scanOps(i % 16 * 256)[0]); return err })

	// Simulator: the scheduler alone, then one simulated KV op through
	// the public cluster facade (engine, fabric, NIC model, executor).
	const burst = 256
	e := sim.NewEngine(1)
	nop := func() {}
	put("sim.schedule_fire", burst, func() error {
		for j := 0; j < burst; j++ {
			e.Schedule(time.Duration(j), nop)
		}
		e.Run()
		return nil
	})
	put("sim.timer_start_stop", burst, func() error {
		for j := 0; j < burst; j++ {
			e.Schedule(time.Millisecond, nop).Stop()
		}
		return nil
	})
	c := prismsim.NewCluster(prismsim.ClusterConfig{Seed: 1})
	srv := c.NewServer("kv", prismsim.SoftwarePRISM)
	store, err := prismsim.NewKVServer(srv, prismsim.KVOptions(nKeys, valueSize))
	if err != nil {
		return err
	}
	for k := int64(0); k < nKeys; k++ {
		if err := store.Load(k, val); err != nil {
			return err
		}
	}
	cli := prismsim.NewKVClient(c.NewClientMachine("client").Connect(srv), store.Meta(), 1)
	const simOps = 64
	simLoop := func(op func(p *prismsim.Proc, key int64) error) func() error {
		return func() error {
			var opErr error
			c.Go("client", func(p *prismsim.Proc) {
				for j := 0; j < simOps && opErr == nil; j++ {
					i++
					opErr = op(p, i%nKeys)
				}
				cli.FlushFrees(p)
			})
			c.Run()
			return opErr
		}
	}
	put("rdma.simulated_get", simOps, simLoop(func(p *prismsim.Proc, k int64) error { _, err := cli.Get(p, k); return err }))
	put("rdma.simulated_put", simOps, simLoop(func(p *prismsim.Proc, k int64) error { return cli.Put(p, k, val) }))
	return firstErr
}
