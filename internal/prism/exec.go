// Package prism implements the semantics of the PRISM primitives (§3,
// Table 1): indirect reads and writes with bounded pointers, free-list
// allocation, the enhanced masked/arithmetic compare-and-swap, and the
// chaining rules (conditional execution and output redirection). The
// Executor applies one op to a server's memory, and Step one op of a
// connection (Conn); the servers (packages rdma and transport) sequence
// requests, charge what package model prices, and move bytes.
//
// Design notes kept from the paper:
//   - Each primitive is atomic with respect to other primitives; a chain
//     is NOT atomic as a whole — other clients' operations may interleave
//     between its steps (§3.3, §3.5).
//   - Dereferencing an indirect CAS argument is not guaranteed atomic with
//     the CAS itself (§3.3).
//   - Indirect operations reuse RDMA's protection model: both the pointer
//     and its target must lie in regions registered under the same rkey
//     (§3.1).
//   - Enhanced CAS compares the masked operands as big-endian unsigned
//     integers (network byte order, as Mellanox extended atomics do), so
//     multi-field layouts put the most significant field first; the
//     applications' tag|addr layouts rely on this.
package prism

import (
	"errors"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/wire"
)

// Executor applies PRISM operations to one server's memory.
//
// Concurrency: the dispatch table is immutable package state, so any
// number of executors run concurrently — but one Executor is
// single-goroutine (casScratch and ReadAlloc are per-call scratch), and
// the Space and free lists it touches are not goroutine-safe. Servers
// with concurrent connections give each connection its own Executor
// over the shared Space/FreeLists and hold Space.Guard across each
// ExecInto call: per-primitive locking is exactly the paper's atomicity
// contract (each primitive atomic, chains not atomic as a whole — §3.3,
// §3.5). The simulator executes every op of a cluster on its one engine
// and needs neither.
type Executor struct {
	Space     *memory.Space
	FreeLists map[uint32]*alloc.FreeList

	// ReadAlloc, when set, returns the n-byte destination buffer for every
	// result payload that rides the response: READ and CHASE payloads,
	// SCAN's budget, CAS/FETCH_ADD previous values. The live server
	// carves it from the tail of the response frame it is staging, so the
	// payload is copied once, from host memory into the bytes that go on
	// the wire; the simulated NIC carves from a per-connection arena
	// (transport.CarveArena). An op calls it at most once, only after its
	// target checks passed, and a payload it returns is a prefix of that
	// buffer (SCAN's is as long as the entries it packed); the rest of the
	// buffer is unspecified.
	ReadAlloc func(n uint64) []byte

	// Observer, when set, is told of every op Step applies or skips. It
	// runs on the executor's goroutine, under the space guard on a live
	// server.
	Observer Observer

	// casScratch is the executor-owned staging buffer for the swapped-in
	// CAS value; it is fully consumed within one ExecInto call.
	casScratch [wire.MaxCASBytes]byte
}

// NewExecutor returns an executor over space with no free lists.
func NewExecutor(space *memory.Space) *Executor {
	return &Executor{Space: space, FreeLists: make(map[uint32]*alloc.FreeList)}
}

// OpMeta is model.OpMeta, kept under this name for the benchmark's
// executor stage.
type OpMeta = model.OpMeta

// resolveTarget applies target indirection and bound clamping (§3.1),
// returning the effective address and length.
func (x *Executor) resolveTarget(op *wire.Op, length uint64, meta *OpMeta) (memory.Addr, uint64, error) {
	addr := op.Target
	switch {
	case op.Flags.Has(wire.FlagBounded):
		// Target is (or points to) a <ptr,bound> struct.
		bp, err := x.Space.ReadBoundedPtr(op.RKey, addr)
		if err != nil {
			return 0, 0, err
		}
		meta.HostAccesses++
		meta.Indirections++
		if bp.Ptr == 0 {
			return 0, 0, memory.ErrNullPointer
		}
		if bp.Bound < length {
			length = bp.Bound
		}
		return bp.Ptr, length, nil
	case op.Flags.Has(wire.FlagTargetIndirect):
		p, err := x.Space.ReadU64(op.RKey, addr)
		if err != nil {
			return 0, 0, err
		}
		meta.HostAccesses++
		meta.Indirections++
		if p == 0 {
			return 0, 0, memory.ErrNullPointer
		}
		return memory.Addr(p), length, nil
	default:
		return addr, length, nil
	}
}

// resolveData applies data indirection: when set, the wire Data field is an
// 8-byte little-endian server pointer and the true source bytes (of size
// length) are loaded from it.
func (x *Executor) resolveData(op *wire.Op, length uint64, meta *OpMeta) ([]byte, error) {
	if !op.Flags.Has(wire.FlagDataIndirect) {
		return op.Data, nil
	}
	if len(op.Data) != 8 {
		return nil, errors.New("prism: indirect data argument must be an 8-byte pointer")
	}
	p := memory.Addr(leU64(op.Data))
	// Zero-copy: the source bytes are consumed within this op (written or
	// compared immediately), never retained.
	src, err := x.Space.Peek(op.RKey, p, length)
	if err != nil {
		return nil, err
	}
	meta.HostAccesses++
	meta.Indirections++
	return src, nil
}

// execEntry is one opcode's dispatch-table row: the semantics function
// and the cost class for deployment accounting.
type execEntry struct {
	fn    func(*Executor, *wire.Op, *OpMeta) (wire.Result, error)
	class model.OpClass
}

// execTable dispatches opcodes without a per-op switch. Unlisted opcodes
// (OpInvalid, OpSend — two-sided dispatch is the transport's job) resolve
// to StatusUnsupported.
var execTable = [...]execEntry{
	wire.OpRead:       {fn: (*Executor).execRead, class: model.OpRead},
	wire.OpWrite:      {fn: (*Executor).execWrite, class: model.OpWrite},
	wire.OpCAS:        {fn: (*Executor).execCAS, class: model.OpCAS},
	wire.OpClassicCAS: {fn: (*Executor).execClassicCAS, class: model.OpCAS},
	wire.OpFetchAdd:   {fn: (*Executor).execFetchAdd, class: model.OpCAS},
	wire.OpAllocate:   {fn: (*Executor).execAllocate, class: model.OpAllocate},
	wire.OpChase:      {fn: (*Executor).execChase, class: model.OpProgram},
	wire.OpScan:       {fn: (*Executor).execScan, class: model.OpProgram},
}

// Conn is one connection's §3.4 chain state, which spans its requests.
// The zero value is a fresh connection.
type Conn struct {
	failed bool // the last op the connection executed failed
}

// Observer sees one op of a request as Step leaves it: req carries the
// connection and sequence number, i is the op's index in req.Ops, and res
// and meta are its result and cost metadata (for a skipped op, res is
// StatusNotExecuted and meta what the previous op left). Every pointer is
// valid only for the duration of the call: format or copy what is needed
// there, never keep it.
type Observer func(req *wire.Request, i int, res *wire.Result, meta *OpMeta)

// Step applies req.Ops[i] as the next op from connection c, the one home
// of §3.4's CONDITIONAL rule: a CONDITIONAL op after a failure is skipped
// (StatusNotExecuted; c and *meta unchanged; false), and any other op
// runs as ExecInto and its outcome is recorded in c. Either way the
// Observer, if set, sees the op: Step is the one place that reports
// executed ops, on both servers.
func (x *Executor) Step(c *Conn, req *wire.Request, i int, res *wire.Result, meta *OpMeta) (executed bool) {
	op := &req.Ops[i]
	executed = !c.failed || !op.Flags.Has(wire.FlagConditional)
	if executed {
		x.ExecInto(op, res, meta)
		c.failed = !res.Status.OK()
	} else {
		*res = wire.Result{Status: wire.StatusNotExecuted}
	}
	if x.Observer != nil {
		x.Observer(req, i, res, meta)
	}
	return executed
}

// Exec applies op to the server's memory, returning the wire result and
// cost metadata. It ignores the CONDITIONAL flag (Step applies it) and
// always executes.
func (x *Executor) Exec(op *wire.Op) (wire.Result, OpMeta) {
	var res wire.Result
	var meta OpMeta
	x.ExecInto(op, &res, &meta)
	return res, meta
}

// ExecInto is the allocation-free form of Exec: the result is resolved
// directly into *res (typically a response's results slot) and the cost
// metadata into *meta, both fully overwritten.
func (x *Executor) ExecInto(op *wire.Op, res *wire.Result, meta *OpMeta) {
	*meta = OpMeta{PRISMOnly: !model.StockExecutes(op)}
	if int(op.Code) >= len(execTable) || execTable[op.Code].fn == nil {
		*res = wire.Result{Status: wire.StatusUnsupported}
		return
	}
	ent := &execTable[op.Code]
	meta.Class = ent.class
	r, err := ent.fn(x, op, meta)
	if err != nil {
		if errors.Is(err, alloc.ErrEmpty) {
			*res = wire.Result{Status: wire.StatusRNR}
			return
		}
		*res = wire.Result{Status: wire.StatusNAKAccess}
		return
	}
	*res = r
}

// resultAlloc returns an n-byte buffer for a result payload that rides
// the response: arena-carved when the transport installed ReadAlloc,
// heap-allocated otherwise.
func (x *Executor) resultAlloc(n uint64) []byte {
	if x.ReadAlloc != nil {
		return x.ReadAlloc(n)
	}
	return make([]byte, n)
}

func (x *Executor) execRead(op *wire.Op, meta *OpMeta) (wire.Result, error) {
	addr, length, err := x.resolveTarget(op, op.Len, meta)
	if err != nil {
		return wire.Result{}, err
	}
	if op.Flags.Has(wire.FlagRedirect) {
		// Redirected reads copy region-to-region on the spot; the bytes are
		// not retained, so a zero-copy view suffices (copy is memmove-safe
		// even for overlapping source and target).
		data, err := x.Space.Peek(op.RKey, addr, length)
		if err != nil {
			return wire.Result{}, err
		}
		meta.HostAccesses++
		if err := x.Space.Write(op.RKey, op.RedirectTo, data); err != nil {
			return wire.Result{}, err
		}
		meta.HostAccesses++
		meta.RedirectUsed = true
		return wire.Result{Status: wire.StatusOK}, nil
	}
	// The result rides the response message until delivery, so it must be a
	// stable copy, not a view. The range is checked before the buffer is
	// carved: a client-chosen length must not size one that fails.
	src, err := x.Space.Peek(op.RKey, addr, length)
	if err != nil {
		return wire.Result{}, err
	}
	data := x.resultAlloc(length)
	copy(data, src)
	meta.HostAccesses++
	return wire.Result{Status: wire.StatusOK, Data: data}, nil
}

func (x *Executor) execWrite(op *wire.Op, meta *OpMeta) (wire.Result, error) {
	length := uint64(len(op.Data))
	if op.Flags.Has(wire.FlagDataIndirect) {
		length = op.Len
	}
	addr, length, err := x.resolveTarget(op, length, meta)
	if err != nil {
		return wire.Result{}, err
	}
	src, err := x.resolveData(op, length, meta)
	if err != nil {
		return wire.Result{}, err
	}
	if uint64(len(src)) > length {
		src = src[:length]
	}
	if err := x.Space.Write(op.RKey, addr, src); err != nil {
		return wire.Result{}, err
	}
	meta.HostAccesses++
	return wire.Result{Status: wire.StatusOK}, nil
}

func (x *Executor) execAllocate(op *wire.Op, meta *OpMeta) (wire.Result, error) {
	fl, ok := x.FreeLists[op.FreeList]
	if !ok {
		return wire.Result{}, errors.New("prism: no such free list")
	}
	if uint64(len(op.Data)) > fl.BufSize {
		return wire.Result{}, errors.New("prism: data exceeds free-list buffer size")
	}
	buf, err := fl.Pop()
	if err != nil {
		return wire.Result{}, err // alloc.ErrEmpty -> RNR
	}
	if err := x.Space.Write(fl.Key, buf, op.Data); err != nil {
		// Registration bug server-side; put the buffer back.
		fl.Post(buf)
		return wire.Result{}, err
	}
	meta.HostAccesses++
	if op.Flags.Has(wire.FlagRedirect) {
		if err := x.Space.WriteU64(op.RKey, op.RedirectTo, uint64(buf)); err != nil {
			fl.Post(buf)
			return wire.Result{}, err
		}
		meta.HostAccesses++
		meta.RedirectUsed = true
		return wire.Result{Status: wire.StatusOK, Addr: buf}, nil
	}
	return wire.Result{Status: wire.StatusOK, Addr: buf}, nil
}

func (x *Executor) execCAS(op *wire.Op, meta *OpMeta) (wire.Result, error) {
	width := uint64(len(op.CompareMask))
	if width == 0 {
		width = uint64(len(op.Data))
	}
	if width == 0 || width > wire.MaxCASBytes {
		return wire.Result{}, errors.New("prism: bad CAS width")
	}
	if len(op.SwapMask) != 0 && uint64(len(op.SwapMask)) != width {
		return wire.Result{}, errors.New("prism: mask widths differ")
	}
	addr, _, err := x.resolveTarget(op, width, meta)
	if err != nil {
		return wire.Result{}, err
	}
	data, err := x.resolveData(op, width, meta)
	if err != nil {
		return wire.Result{}, err
	}
	if uint64(len(data)) != width {
		return wire.Result{}, errors.New("prism: CAS data width mismatch")
	}
	cur, err := x.Space.Peek(op.RKey, addr, width)
	if err != nil {
		return wire.Result{}, err
	}
	meta.HostAccesses++ // the atomic read-modify-write

	// prev is retained (it rides the response), so it must be a copy taken
	// before the swap mutates the cell cur aliases.
	prev := x.resultAlloc(width)
	copy(prev, cur)

	ok := compareMasked(op.Mode, cur, data, op.CompareMask)
	if !ok {
		return wire.Result{Status: wire.StatusCASFailed, Data: prev}, nil
	}
	next := x.casScratch[:width]
	swapMaskedInto(next, cur, data, op.SwapMask)
	if err := x.Space.Write(op.RKey, addr, next); err != nil {
		return wire.Result{}, err
	}
	return wire.Result{Status: wire.StatusOK, Data: prev}, nil
}

// execClassicCAS is the legacy RDMA atomic: 8 bytes, separate expect and
// desired operands carried as Data = expect(8)|desired(8), little-endian
// (the legacy verb predates the extended-atomics byte-order conventions).
func (x *Executor) execClassicCAS(op *wire.Op, meta *OpMeta) (wire.Result, error) {
	if len(op.Data) != 16 {
		return wire.Result{}, errors.New("prism: classic CAS needs expect|desired operands")
	}
	addr, _, err := x.resolveTarget(op, 8, meta)
	if err != nil {
		return wire.Result{}, err
	}
	cur, err := x.Space.ReadU64(op.RKey, addr)
	if err != nil {
		return wire.Result{}, err
	}
	meta.HostAccesses++
	prev := x.resultAlloc(8)
	putLEU64(prev, cur)
	if cur != leU64(op.Data[:8]) {
		return wire.Result{Status: wire.StatusCASFailed, Data: prev}, nil
	}
	if err := x.Space.WriteU64(op.RKey, addr, leU64(op.Data[8:])); err != nil {
		return wire.Result{}, err
	}
	return wire.Result{Status: wire.StatusOK, Data: prev}, nil
}

func (x *Executor) execFetchAdd(op *wire.Op, meta *OpMeta) (wire.Result, error) {
	if len(op.Data) != 8 {
		return wire.Result{}, errors.New("prism: FETCH_ADD needs an 8-byte addend")
	}
	addr, _, err := x.resolveTarget(op, 8, meta)
	if err != nil {
		return wire.Result{}, err
	}
	cur, err := x.Space.ReadU64(op.RKey, addr)
	if err != nil {
		return wire.Result{}, err
	}
	meta.HostAccesses++
	if err := x.Space.WriteU64(op.RKey, addr, cur+leU64(op.Data)); err != nil {
		return wire.Result{}, err
	}
	prev := x.resultAlloc(8)
	putLEU64(prev, cur)
	return wire.Result{Status: wire.StatusOK, Data: prev}, nil
}

// compareMasked evaluates (cur & mask) mode (data & mask), treating the
// masked byte strings as big-endian unsigned integers. An empty mask
// means all bits. It compares masked bytes in place, without allocating.
func compareMasked(mode wire.CASMode, cur, data, mask []byte) bool {
	// c compares data vs cur: the CAS semantics compare the supplied data
	// against the current value — CASGt succeeds when data > *target.
	c := 0
	for i := range data {
		m := byte(0xFF)
		if len(mask) != 0 {
			m = mask[i]
		}
		d, u := data[i]&m, cur[i]&m
		if d != u {
			if d > u {
				c = 1
			} else {
				c = -1
			}
			break
		}
	}
	switch mode {
	case wire.CASEq:
		return c == 0
	case wire.CASGt:
		return c > 0
	case wire.CASLt:
		return c < 0
	default:
		return false
	}
}

// swapMaskedInto writes (cur & ~mask) | (data & mask) to out. An empty
// mask means all bits (full swap).
func swapMaskedInto(out, cur, data, mask []byte) {
	for i := range out {
		m := byte(0xFF)
		if len(mask) != 0 {
			m = mask[i]
		}
		out[i] = cur[i]&^m | data[i]&m
	}
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func putLEU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
