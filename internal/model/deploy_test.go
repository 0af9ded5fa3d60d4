package model

import (
	"testing"
	"time"

	"prism/internal/wire"
)

// TestOpExtraPriceTable pins what each deployment charges for one
// executed op under the default calibration: every price is a literal, so
// moving or reshaping the price list cannot move one unseen. The figures
// issue only some of these rows; the rest (a flagged classic CAS, a
// host-resident redirect, programs on every deployment) are priced here
// and nowhere else.
func TestOpExtraPriceTable(t *testing.T) {
	const ns = time.Nanosecond
	indirectRead := OpMeta{Class: OpRead, HostAccesses: 2, Indirections: 1, PRISMOnly: true}
	redirectRead := OpMeta{Class: OpRead, HostAccesses: 2, PRISMOnly: true, RedirectUsed: true}
	chase := OpMeta{Class: OpProgram, HostAccesses: 9, Indirections: 8, PRISMOnly: true, Steps: 8}
	scan := OpMeta{Class: OpProgram, HostAccesses: 4, PRISMOnly: true, Steps: 4}
	for _, row := range []struct {
		name      string
		d         Deployment
		code      wire.OpCode
		meta      OpMeta
		tempOnNIC bool
		hostTemps bool // Params.RedirectToHostMem
		want      time.Duration
	}{
		{"rdma read", HardwareRDMA, wire.OpRead, OpMeta{Class: OpRead, HostAccesses: 1}, true, false, 0},
		{"sw read", SoftwarePRISM, wire.OpRead, OpMeta{Class: OpRead, HostAccesses: 1}, true, false, 500 * ns},
		{"sw write", SoftwarePRISM, wire.OpWrite, OpMeta{Class: OpWrite, HostAccesses: 1}, true, false, 200 * ns},
		{"sw allocate", SoftwarePRISM, wire.OpAllocate, OpMeta{Class: OpAllocate, HostAccesses: 1, PRISMOnly: true}, true, false, 300 * ns},
		{"sw masked cas", SoftwarePRISM, wire.OpCAS, OpMeta{Class: OpCAS, HostAccesses: 1, PRISMOnly: true}, true, false, 400 * ns},
		{"sw indirect read", SoftwarePRISM, wire.OpRead, indirectRead, true, false, 500 * ns},
		{"hw read", ProjectedHardwarePRISM, wire.OpRead, OpMeta{Class: OpRead, HostAccesses: 1}, true, false, 0},
		{"hw indirect read", ProjectedHardwarePRISM, wire.OpRead, indirectRead, true, false, 900 * ns},
		{"hw classic cas with a flag", ProjectedHardwarePRISM, wire.OpClassicCAS, OpMeta{Class: OpCAS, HostAccesses: 2, Indirections: 1, PRISMOnly: true}, true, false, 900 * ns},
		{"hw classic-subset cas", ProjectedHardwarePRISM, wire.OpCAS, OpMeta{Class: OpCAS, HostAccesses: 1}, true, false, 0},
		{"hw masked cas", ProjectedHardwarePRISM, wire.OpCAS, OpMeta{Class: OpCAS, HostAccesses: 1, PRISMOnly: true}, true, false, 300 * ns},
		{"hw cas with indirect data", ProjectedHardwarePRISM, wire.OpCAS, OpMeta{Class: OpCAS, HostAccesses: 2, Indirections: 1, PRISMOnly: true}, true, false, 1200 * ns},
		{"hw allocate", ProjectedHardwarePRISM, wire.OpAllocate, OpMeta{Class: OpAllocate, HostAccesses: 1, PRISMOnly: true}, true, false, 200 * ns},
		{"hw allocate redirected on-NIC", ProjectedHardwarePRISM, wire.OpAllocate, OpMeta{Class: OpAllocate, HostAccesses: 2, PRISMOnly: true, RedirectUsed: true}, true, false, 200 * ns},
		{"hw allocate redirected to a host temp", ProjectedHardwarePRISM, wire.OpAllocate, OpMeta{Class: OpAllocate, HostAccesses: 2, PRISMOnly: true, RedirectUsed: true}, false, false, 1100 * ns},
		{"hw read redirected on-NIC", ProjectedHardwarePRISM, wire.OpRead, redirectRead, true, false, 0},
		{"hw read redirected to a host temp", ProjectedHardwarePRISM, wire.OpRead, redirectRead, false, false, 900 * ns},
		{"hw read redirected with RedirectToHostMem", ProjectedHardwarePRISM, wire.OpRead, redirectRead, true, true, 900 * ns},
		{"hw read, host temp, no redirect", ProjectedHardwarePRISM, wire.OpRead, OpMeta{Class: OpRead, HostAccesses: 1}, false, true, 0},
		{"bf read", BlueFieldPRISM, wire.OpRead, OpMeta{Class: OpRead, HostAccesses: 1}, true, false, 3000 * ns},
		{"bf indirect read", BlueFieldPRISM, wire.OpRead, indirectRead, true, false, 6000 * ns},
		{"bf redirected read", BlueFieldPRISM, wire.OpRead, redirectRead, false, true, 6000 * ns},
		{"bf masked cas", BlueFieldPRISM, wire.OpCAS, OpMeta{Class: OpCAS, HostAccesses: 1, PRISMOnly: true}, true, false, 3000 * ns},
		{"rdma chase", HardwareRDMA, wire.OpChase, chase, true, false, 0},
		{"sw chase", SoftwarePRISM, wire.OpChase, chase, true, false, 1700 * ns},
		{"hw chase", ProjectedHardwarePRISM, wire.OpChase, chase, true, false, 8400 * ns},
		{"bf chase", BlueFieldPRISM, wire.OpChase, chase, true, false, 28200 * ns},
		{"rdma scan", HardwareRDMA, wire.OpScan, scan, true, false, 0},
		{"sw scan", SoftwarePRISM, wire.OpScan, scan, true, false, 1100 * ns},
		{"hw scan", ProjectedHardwarePRISM, wire.OpScan, scan, true, false, 600 * ns},
		{"bf scan", BlueFieldPRISM, wire.OpScan, scan, true, false, 12600 * ns},
	} {
		p := Default()
		p.RedirectToHostMem = row.hostTemps
		if got := p.OpExtra(row.d, row.code, row.meta, row.tempOnNIC); got != row.want {
			t.Errorf("%s: OpExtra = %v, want %v", row.name, got, row.want)
		}
	}
}

// TestRequestPrices pins the per-request terms beside OpExtra: the base
// pipeline, the stack's fixed cost and core demand, a program's further
// core demand, and the RPC path's fixed latency.
func TestRequestPrices(t *testing.T) {
	const ns = time.Nanosecond
	p := Default()
	// 2500 ns less four 190-byte frames at 40 Gb/s (38 ns each).
	if got := p.BaseProc(); got != 2348*ns {
		t.Errorf("BaseProc = %v, want 2.348µs", got)
	}
	tiny := p
	tiny.RDMABaseRTT = 100 * ns
	if got := tiny.BaseProc(); got != 0 {
		t.Errorf("BaseProc below the frames' serialization = %v, want 0", got)
	}
	for _, c := range []struct {
		d             Deployment
		nops          int
		overhead, cpu time.Duration
	}{
		{HardwareRDMA, 1, 0, 0},
		{SoftwarePRISM, 1, 2300 * ns, 650 * ns},
		{SoftwarePRISM, 3, 2300 * ns, 950 * ns},
		{ProjectedHardwarePRISM, 3, 0, 0},
		{BlueFieldPRISM, 3, 2000 * ns, 0},
	} {
		if o, cpu := p.RequestCost(c.d, c.nops); o != c.overhead || cpu != c.cpu {
			t.Errorf("RequestCost(%v, %d) = %v, %v, want %v, %v", c.d, c.nops, o, cpu, c.overhead, c.cpu)
		}
	}
	for _, c := range []struct {
		d     Deployment
		steps int
		want  time.Duration
	}{
		{SoftwarePRISM, 0, 0},
		{SoftwarePRISM, 1, 0},
		{SoftwarePRISM, 8, 1050 * ns},
		{ProjectedHardwarePRISM, 8, 0},
		{BlueFieldPRISM, 8, 0},
	} {
		if got := p.ProgramCPU(c.d, c.steps); got != c.want {
			t.Errorf("ProgramCPU(%v, %d) = %v, want %v", c.d, c.steps, got, c.want)
		}
	}
	if got := p.RPCLatency(); got != 5448*ns {
		t.Errorf("RPCLatency = %v, want 5.448µs", got)
	}
}
