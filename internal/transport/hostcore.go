package transport

import (
	"fmt"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/prism"
)

// ConnTempSize is the per-connection temporary buffer used as the redirect
// target in chains. §4.2 argues 32 B per connection suffices for the
// paper's applications; we provision 256 B (eight 32 B chain slots) so a
// transaction that installs several keys on one shard can run its commit
// chains concurrently, each against its own slot — still far below the
// ~375 B of existing per-connection QP state the paper compares against.
// TempSlotSize is the stride applications use to carve it into independent
// chain slots.
const (
	ConnTempSize = 256
	TempSlotSize = 32
)

// HostCore is the Host half of a server, written once: the memory space,
// the free lists ALLOCATE pops from, the quiescer that gates buffer reuse
// (§3.2), the two-sided RPC hook, the published Meta (meta.go) and the
// per-connection temp-buffer region. The simulated NIC (rdma.Server) and
// the live socket server (Server) both embed it; what they add is how
// requests arrive and what they cost.
//
// Everything that touches shared state while the host serves takes the
// space guard, on both transports: the live server's sockets contend on
// it, and in the simulator — one goroutine per cluster engine, which holds
// the guard nowhere else — it is uncontended and costs an atomic.
// Provisioning and bulk loading run before serving and take none (Host).
type HostCore struct {
	space     *memory.Space
	freeLists map[uint32]*alloc.FreeList
	quiescer  *alloc.Quiescer
	handler   RPCHandler
	observer  prism.Observer

	app      string
	meta     any
	metaJSON []byte // the RPCMeta reply, encoded on the first fetch

	tempKey    memory.RKey
	tempRegion *memory.Region
	tempUsed   uint64
	tempFree   []memory.Addr // returned by closed connections, reused first
}

// NewHostCore returns the provisioning state of a server over space.
func NewHostCore(space *memory.Space) HostCore {
	return HostCore{
		space:     space,
		freeLists: make(map[uint32]*alloc.FreeList),
		quiescer:  alloc.NewQuiescer(),
	}
}

// Space exposes the server's memory for registration and CPU-side
// access. CPU-side access concurrent with live serving must hold
// Space().Guard.
func (h *HostCore) Space() *memory.Space { return h.space }

// AddFreeList registers a free list with the NIC for ALLOCATE. Call
// during provisioning, before serving.
func (h *HostCore) AddFreeList(fl *alloc.FreeList) {
	if _, dup := h.freeLists[fl.ID]; dup {
		panic(fmt.Sprintf("transport: duplicate free list id %d", fl.ID))
	}
	h.freeLists[fl.ID] = fl
}

// FreeList returns a registered free list.
func (h *HostCore) FreeList(id uint32) *alloc.FreeList { return h.freeLists[id] }

// FreeLists is the registered free lists by id: the map executors pop
// from and server templates clone. Read-only to callers.
func (h *HostCore) FreeLists() map[uint32]*alloc.FreeList { return h.freeLists }

// Quiescer tracks the in-flight operations of this server; the transports
// bracket each executed request (or wakeup batch) with OpStart/OpEnd.
func (h *HostCore) Quiescer() *alloc.Quiescer { return h.quiescer }

// SetRPCHandler installs the two-sided dispatch target.
func (h *HostCore) SetRPCHandler(fn RPCHandler) { h.handler = fn }

// SetObserver installs (or, with nil, removes) the observer both servers
// hand their executors: prism.Executor.Step calls it for every op the
// server steps. Call it before serving: a live server's sockets take it
// when they are accepted and call it under the space guard.
func (h *HostCore) SetObserver(o prism.Observer) { h.observer = o }

// Observer is the installed observer, or nil.
func (h *HostCore) Observer() prism.Observer { return h.observer }

// RecycleBuffers returns client-released buffers to their free list once
// all in-flight operations drain (§3.2's reuse rule): one guard
// acquisition and one quiesce wait for the lot. Typically invoked from an
// RPC handler fed by the application's reclamation protocol; safe to call
// from application goroutines on a live server.
func (h *HostCore) RecycleBuffers(freeList uint32, addrs []memory.Addr) {
	fl, ok := h.freeLists[freeList]
	if !ok {
		panic(fmt.Sprintf("transport: recycle to unknown free list %d", freeList))
	}
	g := h.space.Guard()
	g.Lock()
	for _, a := range addrs {
		fl.Recycle(a)
	}
	fl.FlushWhenQuiet(h.quiescer)
	g.Unlock()
}

// Quiesce runs fn once every operation currently in flight has completed
// (immediately when idle). Server applications use it for reclamation
// decisions that must not race in-flight chains (§3.2). fn may run with
// the space guard held — always on a live server, and on any server when
// it is idle at the call — so it must not take the guard itself: no
// Quiesce, RecycleBuffers or guarded application call (kv.Server.Load)
// from inside fn. The guard is not reentrant; such a call deadlocks.
func (h *HostCore) Quiesce(fn func()) {
	g := h.space.Guard()
	g.Lock()
	h.quiescer.AfterQuiesce(fn)
	g.Unlock()
}

// SetConnTempKey selects the protection domain in which per-connection
// temporary buffers are allocated, so chains can traverse from application
// metadata to the temp buffer under one rkey. Must be called before the
// first connection.
func (h *HostCore) SetConnTempKey(key memory.RKey) {
	if h.tempRegion != nil {
		panic("transport: SetConnTempKey after connections exist")
	}
	h.tempKey = key
}

// TempKey returns the rkey protecting connection temp buffers.
func (h *HostCore) TempKey() memory.RKey { return h.tempKey }

// Temp regions follow a fixed schedule, because a registered region is
// allocated and zeroed whole on the host and most servers ever see a
// handful of connections: the first region is one page, each later one
// doubles, and from tempMaxBufs on every region is the 256 KiB on-NIC unit
// (model.OnNICMemoryBytes). Registered bytes stay within twice the bytes
// handed out plus a page.
const (
	tempFirstBufs = 4096 / ConnTempSize
	tempMaxBufs   = 1024
)

// nextTempBufs is the schedule: the capacity, in buffers, of the region
// after one of prev buffers (0: no region yet).
func nextTempBufs(prev uint64) uint64 {
	switch {
	case prev == 0:
		return tempFirstBufs
	case prev >= tempMaxBufs/2:
		return tempMaxBufs
	}
	return 2 * prev
}

// AllocConnTemp hands out a per-connection temp buffer: a returned one,
// zeroed, if any, else one carved from the current region, registering
// the schedule's next backing region (under the space guard) when that one
// fills. Transports call it once per accepted connection and serialize
// the calls themselves: the live server under its accept lock, the
// simulator by running each cluster on one engine.
func (h *HostCore) AllocConnTemp() memory.Addr {
	if n := len(h.tempFree); n > 0 {
		addr := h.tempFree[n-1]
		h.tempFree = h.tempFree[:n-1]
		var zero [ConnTempSize]byte
		g := h.space.Guard()
		g.Lock()
		err := h.space.Write(h.tempKey, addr, zero[:])
		g.Unlock()
		if err != nil {
			panic(fmt.Sprintf("transport: clearing a returned temp buffer: %v", err))
		}
		return addr
	}
	if h.tempRegion == nil || h.tempUsed+ConnTempSize > h.tempRegion.Len {
		var prev uint64
		if h.tempRegion != nil {
			prev = h.tempRegion.Len / ConnTempSize
		}
		size := ConnTempSize * nextTempBufs(prev)
		g := h.space.Guard()
		g.Lock()
		var r *memory.Region
		var err error
		if h.tempKey != 0 {
			r, err = h.space.RegisterShared(h.tempKey, size)
		} else {
			r, err = h.space.Register(size)
			if err == nil {
				h.tempKey = r.Key
			}
		}
		g.Unlock()
		if err != nil {
			panic(fmt.Sprintf("transport: temp region registration failed: %v", err))
		}
		h.tempRegion = r
		h.tempUsed = 0
	}
	addr := h.tempRegion.Base + memory.Addr(h.tempUsed)
	h.tempUsed += ConnTempSize
	return addr
}

// ReturnConnTemps gives closed connections' temp buffers back for
// AllocConnTemp to reuse, under the same serialization as AllocConnTemp.
// The simulator never closes a connection; the live server returns a
// socket's temps when the socket closes.
func (h *HostCore) ReturnConnTemps(temps []memory.Addr) {
	h.tempFree = append(h.tempFree, temps...)
}

// CarveArena allocates n bytes from a payload arena: the simulated NIC's
// per-connection response arena (its executor's ReadAlloc) and the
// result copies of transport.Fanout. The live server has no arena; its
// executor carves straight from the response frame it stages. When the
// arena must grow, earlier carvings keep the old backing array alive and
// the request continues on the new one.
func CarveArena(arena *[]byte, n uint64) []byte {
	buf := *arena
	if uint64(cap(buf)-len(buf)) < n {
		c := 2 * cap(buf)
		if c < int(n) {
			c = int(n)
		}
		if c < 1024 {
			c = 1024
		}
		buf = make([]byte, 0, c)
	}
	off := len(buf)
	buf = buf[:off+int(n)]
	*arena = buf
	return buf[off:]
}
