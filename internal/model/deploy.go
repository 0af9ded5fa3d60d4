package model

import (
	"time"

	"prism/internal/wire"
)

// OpClass buckets operations for deployment cost lookup.
type OpClass int

// Operation classes used for deployment cost lookup.
const (
	OpRead OpClass = iota
	OpWrite
	OpAllocate
	OpCAS
	OpProgram // bounded server-side verb program (CHASE/SCAN, DESIGN.md §14)
)

// OpMeta describes an executed op for deployment cost accounting: the
// executor fills it in, OpExtra prices it.
type OpMeta struct {
	Class OpClass
	// HostAccesses counts distinct host-memory accesses the op performed
	// (pointer fetches, payload reads/writes, atomics). Drives the
	// BlueField cost model.
	HostAccesses int
	// Indirections counts pointer dereferences beyond a direct access
	// (target indirection, data indirection, redirects to host memory).
	// Drives the projected-hardware PCIe cost model.
	Indirections int
	// PRISMOnly reports that a stock RDMA NIC would reject the op:
	// !StockExecutes(op).
	PRISMOnly bool
	// RedirectUsed reports that the op wrote its output to a redirect
	// target (costed differently when temp buffers are in host memory).
	RedirectUsed bool
	// Steps counts the loop iterations a verb program (CHASE/SCAN)
	// executed. Zero for every non-program op; drives the per-step
	// program-engine cost and the ProgSteps counter.
	Steps int
}

// StockExecutes reports whether a stock RDMA NIC executes op: no flag,
// and READ, WRITE, the classic CAS, FETCH_ADD, or an enhanced CAS that is
// the classic subset — equality on 8 data bytes, each mask absent or
// eight 0xFF bytes.
func StockExecutes(op *wire.Op) bool {
	if op.Flags != 0 {
		return false
	}
	switch op.Code {
	case wire.OpRead, wire.OpWrite, wire.OpClassicCAS, wire.OpFetchAdd:
		return true
	case wire.OpCAS:
		return op.Mode == wire.CASEq && len(op.Data) == 8 &&
			classicMask(op.CompareMask) && classicMask(op.SwapMask)
	}
	return false
}

// classicMask reports whether a CAS mask is absent (empty) or selects 8 bytes.
func classicMask(m []byte) bool {
	return len(m) == 0 || string(m) == "\xff\xff\xff\xff\xff\xff\xff\xff"
}

// Executes reports whether deployment d executes a request of ops at all:
// a stock RDMA NIC takes exactly one op per request, one it executes;
// every PRISM deployment takes any chain.
func Executes(d Deployment, ops []wire.Op) bool {
	return d != HardwareRDMA || len(ops) == 1 && StockExecutes(&ops[0])
}

// OnNICMemoryBytes is the user-accessible on-NIC memory region of the
// projected hardware NIC (256 KB on the paper's ConnectX-5, §4.2).
// Connections beyond OnNICMemoryBytes/ConnTempSize get host-resident temp
// buffers, whose redirects cost an extra PCIe round trip — the
// connection-scaling concern §4.2 analyzes.
const OnNICMemoryBytes = 256 << 10

// InterOp spaces chain steps so concurrent chains interleave, as on a
// real NIC where each op is a separate pipeline traversal.
const InterOp = 100 * time.Nanosecond

// The projected hardware NIC's fixed costs for its new datapath functions
// (§4.3).
const (
	hwFreeListPop = 200 * time.Nanosecond // ALLOCATE
	hwWideAtomic  = 300 * time.Nanosecond // a CAS beyond the classic subset
)

// BaseProc is the fixed NIC+PCIe pipeline latency a server charges so
// that a small hardware verb on a direct link completes in RDMABaseRTT
// (the paper's 2.5 µs baseline): the fabric charges the serialization of
// a canonical small request and response, so it is subtracted, and the
// rest floored at 0. A verb request pays BaseProc()/2 before its first op
// and the rest after its last.
func (p Params) BaseProc() time.Duration {
	return max(p.RDMABaseRTT-4*p.SerializationDelay(64), 0)
}

// RequestCost is what deployment d adds to a verb request of nops ops
// beyond the base pipeline: a fixed latency, and the time the request
// occupies one of the software stack's SoftCores (0 elsewhere), whose
// queueing delays the request further.
func (p Params) RequestCost(d Deployment, nops int) (overhead, cpu time.Duration) {
	switch d {
	case SoftwarePRISM:
		return p.SoftBaseOverhead, p.SoftCPUBase + time.Duration(nops)*p.SoftCPUPerOp
	case BlueFieldPRISM:
		return p.BFProcOverhead, 0
	}
	return 0, 0
}

// ProgramCPU is the stack-core time a verb program of steps iterations
// occupies on deployment d beyond the per-op quantum RequestCost charged
// its op: one more quantum per further step.
func (p Params) ProgramCPU(d Deployment, steps int) time.Duration {
	if d != SoftwarePRISM || steps <= 1 {
		return 0
	}
	return time.Duration(steps-1) * p.SoftCPUPerOp
}

// OpExtra is the latency deployment d adds to one executed op beyond the
// base verb pipeline. code is the op's opcode, meta what executing it
// recorded, and tempOnNIC whether the connection's temp buffer (a
// redirect's target) sits in the on-NIC region.
func (p Params) OpExtra(d Deployment, code wire.OpCode, meta OpMeta, tempOnNIC bool) time.Duration {
	// Verb programs pay the loop engine once per executed step (DESIGN.md
	// §14); every classic op runs zero steps, so the term vanishes on the
	// pre-program figures. Per-step memory traffic is charged below
	// through the same HostAccesses/Indirections counts the steps bumped.
	prog := time.Duration(meta.Steps) * p.ProgStepCost
	switch d {
	case SoftwarePRISM:
		return p.SoftExtraFor(meta.Class) + prog
	case ProjectedHardwarePRISM:
		// One extra PCIe round trip per level of indirection (§4.3), plus
		// small fixed costs for the new datapath functions.
		extra := time.Duration(meta.Indirections) * p.PCIeRTT
		if meta.RedirectUsed && !tempOnNIC {
			// §4.2: redirects should target on-NIC memory; a connection
			// whose temp buffer lies past the 256 KB on-NIC region has it
			// in host memory, and each redirect there costs an extra PCIe
			// round trip.
			extra += p.PCIeRTT
		}
		if code == wire.OpAllocate {
			extra += hwFreeListPop
		}
		if code == wire.OpCAS && meta.PRISMOnly {
			extra += hwWideAtomic
		}
		return extra + prog
	case BlueFieldPRISM:
		// Every host-memory access crosses the internal switch (~3 µs).
		return time.Duration(meta.HostAccesses)*p.BFHostAccess + prog
	}
	return 0
}

// SoftExtraFor returns the per-op increment the software stack adds on top
// of SoftBaseOverhead for one op of class c.
func (p Params) SoftExtraFor(c OpClass) time.Duration {
	switch c {
	case OpRead:
		return p.SoftReadExtra
	case OpWrite:
		return p.SoftWriteExtra
	case OpAllocate:
		return p.SoftAllocExtra
	case OpProgram:
		return p.SoftProgExtra
	default:
		return p.SoftCASExtra
	}
}

// RPCLatency is the fixed latency of a two-sided RPC beyond its queueing
// and its handler's extra CPU: the base pipeline, the dispatch overhead
// and the handler's own core time.
func (p Params) RPCLatency() time.Duration {
	return p.BaseProc() + p.RPCOverhead + p.RPCHandlerCPUTime
}
