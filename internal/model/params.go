// Package model holds the calibrated cost parameters for the simulated
// RDMA fabric and the four PRISM deployment options the paper evaluates
// (§4.3): hardware RDMA verbs, the software PRISM stack on dedicated host
// cores, a projected ASIC PRISM NIC, and a BlueField smart-NIC port —
// and, in deploy.go, every decision a deployment makes about an op: whether
// it executes it at all, and what it charges for it. The simulated NIC
// (package rdma) queues and schedules what those functions price.
//
// Every constant is annotated with the paper measurement it was calibrated
// against. Absolute values are only meaningful relative to each other; the
// reproduction targets the paper's shapes (who wins, by what factor, where
// crossovers fall), not testbed-exact numbers.
package model

import "time"

// Deployment selects which implementation of the remote-access data path a
// server's NIC models.
type Deployment int

const (
	// HardwareRDMA is a stock RDMA NIC: classic verbs only. PRISM
	// primitives are unavailable.
	HardwareRDMA Deployment = iota
	// SoftwarePRISM is the paper's prototype: PRISM primitives executed by
	// dedicated host CPU cores inside the networking stack (Snap-style),
	// reached via an eRPC transport (§4.1).
	SoftwarePRISM
	// ProjectedHardwarePRISM models a future NIC ASIC implementing the
	// primitives, costed as the matching RDMA verb plus extra PCIe round
	// trips for indirection (§4.3).
	ProjectedHardwarePRISM
	// BlueFieldPRISM models the software stack running on a Mellanox
	// BlueField's ARM cores, which reach host memory only through an
	// internal RDMA switch (~3µs per access, §4.3 footnote 1).
	BlueFieldPRISM
)

func (d Deployment) String() string {
	switch d {
	case HardwareRDMA:
		return "RDMA"
	case SoftwarePRISM:
		return "PRISM SW"
	case ProjectedHardwarePRISM:
		return "PRISM HW (proj.)"
	case BlueFieldPRISM:
		return "PRISM BlueField"
	default:
		return "unknown"
	}
}

// SwitchProfile is the one-way network latency added on top of the NIC
// processing path, per Figure 2's three deployment scales.
type SwitchProfile struct {
	Name string
	// OneWay is the latency added in each direction of a round trip.
	OneWay time.Duration
}

// The paper's three latency profiles (Fig. 2) plus the direct-connect
// setup used for Fig. 1. Figure 2 quotes per-round-trip added latency;
// halve it for one-way.
var (
	Direct     = SwitchProfile{Name: "direct", OneWay: 0}
	Rack       = SwitchProfile{Name: "rack", OneWay: 300 * time.Nanosecond}       // 0.6 µs/RTT, one ToR switch
	Cluster    = SwitchProfile{Name: "cluster", OneWay: 1500 * time.Nanosecond}   // 3 µs/RTT, three-tier network
	Datacenter = SwitchProfile{Name: "datacenter", OneWay: 12 * time.Microsecond} // 24 µs/RTT, reported DC RDMA latency [12]
)

// Params is the full cost model. Zero value is not useful; use Default.
type Params struct {
	// --- Wire / bandwidth ---

	// LinkBandwidthBps is each NIC port's line rate. The application
	// evaluations (§5) use 40 Gb Ethernet.
	LinkBandwidthBps int64
	// FrameOverheadBytes is per-message wire overhead: Ethernet preamble,
	// header, FCS and inter-frame gap, IP+UDP, and the RoCE BTH headers.
	// Calibrated jointly with payload sizes so the read-throughput gap
	// between PRISM-KV (one response) and Pilaf (two responses + CRCs)
	// lands near the paper's 22% (§6.2).
	FrameOverheadBytes int

	// --- Base verb costs (direct link, Fig. 1 baseline) ---

	// RDMABaseRTT is the round-trip cost of a small hardware verb on a
	// direct link, including both NICs' processing and PCIe DMA: the
	// paper measures 2.5 µs (§4.3).
	RDMABaseRTT time.Duration

	// --- Software PRISM stack (§4.1) ---

	// The software stack adds +2.5–2.8 µs per request depending on the
	// operation (§4.3). We model this as a fixed per-request cost (eRPC
	// receive, dispatch to the dedicated thread, response post) plus a
	// small per-op increment so that multi-op chains — which arrive in a
	// single request — cost only slightly more than single ops, matching
	// the paper's ~6 µs for PRISM-KV's ALLOCATE/WRITE/CAS PUT chain round
	// trip (§6.2).
	SoftBaseOverhead time.Duration // fixed per request: 2.3 µs
	SoftReadExtra    time.Duration // +0.5 µs → single READ totals +2.8 µs
	SoftWriteExtra   time.Duration // +0.2 µs → single WRITE totals +2.5 µs
	SoftAllocExtra   time.Duration // +0.3 µs → single ALLOCATE totals +2.6 µs
	SoftCASExtra     time.Duration // +0.4 µs → single CAS totals +2.7 µs
	SoftProgExtra    time.Duration // +0.5 µs: verb-program setup (parse, loop state)

	// Core occupancy per request for throughput modeling of the dedicated
	// core pool: base + per-op. 16 cores at ~0.65 µs/single-op clear
	// ~24 M op/s, keeping 40 GbE line rate the bottleneck — "16 dedicated
	// cores ... sufficient to achieve line rate" (§6.2) — while chains
	// (~1 µs) still clear the ~6 M txn/s PRISM-TX needs (§8.3).
	SoftCPUBase  time.Duration
	SoftCPUPerOp time.Duration
	// SoftCores is the number of dedicated stack cores per server.
	SoftCores int

	// --- Two-sided RPC (eRPC [16]) ---

	// RPCOverhead is the extra round-trip latency of a two-sided RPC over
	// the base verb RTT: request dispatch to an application core, handler
	// scheduling, and response. Together with RPCHandlerCPUTime this puts
	// a minimal RPC at base + 3.1 µs = 5.6 µs on a direct link, the §2.1
	// measurement.
	RPCOverhead time.Duration
	// RPCHandlerCPUTime is app-core occupancy per RPC.
	RPCHandlerCPUTime time.Duration
	// RPCCores is the number of cores serving RPCs per server.
	RPCCores int

	// --- Projected hardware PRISM NIC (§4.3) ---

	// PCIeRTT is one extra PCIe round trip, added per level of
	// indirection / redirect to host memory ([35] measures ~0.9 µs).
	PCIeRTT time.Duration

	// --- BlueField smart NIC (§4.3, footnote 1) ---

	// BFProcOverhead is the slower ARM cores' processing cost per op.
	BFProcOverhead time.Duration
	// BFHostAccess is the latency of one host-memory access from the
	// BlueField data path (off-path NIC): ~3 µs.
	BFHostAccess time.Duration

	// --- Verb programs (DESIGN.md §14) ---

	// ProgStepCost is the per-iteration cost of a verb program's loop
	// engine (CHASE step / SCAN slot visit) beyond the host-memory
	// accesses the step performs — pointer decode, predicate evaluation,
	// loop bookkeeping. Charged once per executed step on every
	// PRISM-capable deployment; zero-step requests (every classic verb)
	// are unaffected, which keeps all pre-program figures byte-identical.
	ProgStepCost time.Duration

	// --- Client-side costs ---

	// PilafCRCCost is the client-side cost of computing/validating Pilaf's
	// self-verifying CRCs per GET: the paper attributes ~2 µs (§6.2).
	PilafCRCCost time.Duration

	// Network is the switch latency profile in effect.
	Network SwitchProfile

	// LossRate is the per-message drop probability (0 disables loss).
	// Lost messages are recovered by the NIC retransmission timer.
	LossRate float64
	// RetransmitTimeout is the NIC's retransmission timer.
	RetransmitTimeout time.Duration
}

// Default returns the cost model calibrated to the paper's testbed
// (§4.3, §5): ConnectX-5-class base latencies, 40 GbE application network.
func Default() Params {
	return Params{
		LinkBandwidthBps:   40e9,
		FrameOverheadBytes: 126,

		RDMABaseRTT: 2500 * time.Nanosecond,

		SoftBaseOverhead: 2300 * time.Nanosecond,
		SoftReadExtra:    500 * time.Nanosecond,
		SoftWriteExtra:   200 * time.Nanosecond,
		SoftAllocExtra:   300 * time.Nanosecond,
		SoftCASExtra:     400 * time.Nanosecond,
		SoftProgExtra:    500 * time.Nanosecond,
		SoftCPUBase:      500 * time.Nanosecond,
		SoftCPUPerOp:     150 * time.Nanosecond,
		SoftCores:        16,

		RPCOverhead:       2200 * time.Nanosecond,
		RPCHandlerCPUTime: 900 * time.Nanosecond,
		RPCCores:          16,

		PCIeRTT: 900 * time.Nanosecond,

		ProgStepCost: 150 * time.Nanosecond,

		BFProcOverhead: 2000 * time.Nanosecond,
		BFHostAccess:   3000 * time.Nanosecond,

		PilafCRCCost: 2000 * time.Nanosecond,

		Network: Rack,

		LossRate:          0,
		RetransmitTimeout: 100 * time.Microsecond,
	}
}

// WithNetwork returns a copy of p with the switch profile replaced.
func (p Params) WithNetwork(sp SwitchProfile) Params {
	p.Network = sp
	return p
}

// SerializationDelay is the time to put n payload bytes (plus frame
// overhead) on the wire at line rate.
func (p Params) SerializationDelay(n int) time.Duration {
	bits := int64(n+p.FrameOverheadBytes) * 8
	return time.Duration(bits * int64(time.Second) / p.LinkBandwidthBps)
}
