// Command prismtrace prints an annotated, op-by-op trace of the canonical
// PRISM interaction patterns — a teaching/debugging aid that shows exactly
// which wire operations each application-level operation issues, with
// their flags, sizes, and simulated timing, across the deployment models.
//
//	prismtrace kvget      # PRISM-KV GET (one indirect bounded READ)
//	prismtrace kvput      # PRISM-KV PUT (probe + ALLOCATE/WRITE/CAS chain)
//	prismtrace kvscan     # SCAN program: budget-bounded slot-range read
//	prismtrace abdwrite   # PRISM-RS write phase chain
//	prismtrace txcommit   # PRISM-TX prepare + commit CASes
//	prismtrace all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"prism"
	"prism/internal/abd"
	iprism "prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/tx"
	"prism/internal/wire"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: prismtrace {kvget|kvput|kvscan|abdwrite|txcommit|all}")
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	which := flag.Arg(0)
	if which == "all" {
		for _, w := range []string{"kvget", "kvput", "kvscan", "abdwrite", "txcommit"} {
			if !trace(os.Stdout, w) {
				os.Exit(2)
			}
			fmt.Println()
		}
		return
	}
	if !trace(os.Stdout, which) {
		flag.Usage()
		os.Exit(2)
	}
}

// opTrace is the server-side execution trace of one scenario: every wire
// op the server executed, described from the op itself at the moment it
// ran (the observer sees the live op; nothing here is re-derived from what
// a client is believed to send).
type opTrace struct{ lines []string }

// attachTrace installs the trace as the server's observer.
func attachTrace(c *prism.ClusterSim, srv *prism.Server) *opTrace {
	tr := &opTrace{}
	srv.SetObserver(func(req *wire.Request, i int, res *wire.Result, _ *iprism.OpMeta) {
		tr.lines = append(tr.lines, opLine(c.Engine().Now(), req, i, res)+"\n        "+describeOp(&req.Ops[i]))
	})
	return tr
}

// opLine is one stepped op: when, on which connection and request, its
// index in the chain, what it was and how it ended.
func opLine(at sim.Time, req *wire.Request, i int, res *wire.Result) string {
	op := &req.Ops[i]
	return fmt.Sprintf("%v conn=%d seq=%d op[%d] %v flags=%#x -> %v",
		at, req.Conn, req.Seq, i, op.Code, uint8(op.Flags), res.Status)
}

// dump prints the trace.
func (tr *opTrace) dump(w io.Writer, name string) {
	fmt.Fprintf(w, "  executed on %s (server trace):\n", name)
	for _, line := range tr.lines {
		fmt.Fprintf(w, "    %s\n", line)
	}
}

// describeOp formats what an op asks for: its target, the per-opcode
// operands, and its flags.
func describeOp(op *wire.Op) string {
	var flags []string
	for _, f := range []struct {
		bit  wire.Flags
		name string
	}{
		{wire.FlagTargetIndirect, "target-indirect"},
		{wire.FlagDataIndirect, "data-indirect"},
		{wire.FlagBounded, "bounded"},
		{wire.FlagConditional, "conditional"},
		{wire.FlagRedirect, "redirect"},
	} {
		if op.Flags.Has(f.bit) {
			flags = append(flags, f.name)
		}
	}
	fl := ""
	if len(flags) > 0 {
		fl = fmt.Sprintf(" flags=%v", flags)
	}
	extra := ""
	switch op.Code {
	case wire.OpCAS:
		extra = fmt.Sprintf(" mode=%v width=%dB", op.Mode, len(op.CompareMask))
	case wire.OpAllocate:
		extra = fmt.Sprintf(" freelist=%d payload=%dB", op.FreeList, len(op.Data))
	case wire.OpRead:
		extra = fmt.Sprintf(" len=%d", op.Len)
	case wire.OpWrite:
		extra = fmt.Sprintf(" payload=%dB", len(op.Data))
	case wire.OpScan:
		if prog, _, err := iprism.DecodeProgram(op.Data); err == nil {
			extra = fmt.Sprintf(" prog=scan slots=[%d,%d) stride=%dB budget=%dB",
				prog.StartIdx, prog.NSlots, prog.Stride, op.Len)
		}
	}
	return fmt.Sprintf("target=%#x%s%s", op.Target, extra, fl)
}

// putValue is what the kvput scenario stores.
const putValue = "new value"

// trace writes the annotated trace for one scenario to w; it reports
// false for an unknown scenario name.
func trace(w io.Writer, which string) bool {
	c := prism.NewCluster(prism.ClusterConfig{Seed: 3})

	switch which {
	case "kvget", "kvput":
		srv := c.NewServer("kv", prism.SoftwarePRISM)
		store, err := prism.NewKVServer(srv, prism.KVOptions(64, 256))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		store.Load(7, []byte("traced value"))
		tr := attachTrace(c, srv)
		conn := c.NewClientMachine("cli").Connect(srv)
		client := prism.NewKVClient(conn, store.Meta(), 1).Client
		c.Go("trace", func(p *sim.Proc) {
			if which == "kvget" {
				fmt.Fprintln(w, "PRISM-KV GET(7): one round trip —")
				start := p.Now()
				v, err := client.Get(7)
				fmt.Fprintf(w, "  -> %q err=%v RTT=%v\n", v, err, p.Now().Sub(start))
			} else {
				fmt.Fprintln(w, "PRISM-KV PUT(7): two round trips — seq 0 probes the slot, seq 1 is the")
				fmt.Fprintln(w, "out-of-place install chain —")
				start := p.Now()
				err := client.Put(7, []byte(putValue))
				fmt.Fprintf(w, "  -> err=%v total=%v\n", err, p.Now().Sub(start))
			}
		})
		c.Run()
		tr.dump(w, "kv")

	case "kvscan":
		srv := c.NewServer("kv", prism.SoftwarePRISM)
		store, err := prism.NewKVServer(srv, prism.KVOptions(64, 256))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for k := int64(0); k < 16; k++ {
			store.Load(k, []byte(fmt.Sprintf("scanned value %d", k)))
		}
		tr := attachTrace(c, srv)
		conn := c.NewClientMachine("cli").Connect(srv)
		client := prism.NewKVClient(conn, store.Meta(), 1).Client
		c.Go("trace", func(p *sim.Proc) {
			fmt.Fprintln(w, "SCAN over a 64-slot table, 512-byte budget (DESIGN.md §14): one round trip per window —")
			start := p.Now()
			entries := 0
			next, err := client.Scan(0, 512, func(key int64, value []byte) error {
				entries++
				return nil
			})
			fmt.Fprintf(w, "  -> %d entries, cursor=%d err=%v RTT=%v (resume from the cursor for the rest)\n",
				entries, next, err, p.Now().Sub(start))
		})
		c.Run()
		tr.dump(w, "kv")

	case "abdwrite":
		fmt.Fprintln(w, "PRISM-RS write phase (per replica, §7.3): one chained round trip —")
		srv := c.NewServer("replica", prism.SoftwarePRISM)
		rep, err := prism.NewRSReplica(srv, prism.RSOptions{NBlocks: 8, BlockSize: 64, ExtraBuffers: 16})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr := attachTrace(c, srv)
		conn := c.NewClientMachine("cli").Connect(srv)
		client := prism.NewRSClient(1, []*prism.Conn{conn}, []abd.Meta{rep.Meta()})
		c.Go("trace", func(p *sim.Proc) {
			start := p.Now()
			tag, err := client.PutT(3, make([]byte, 64))
			fmt.Fprintf(w, "  PUT block 3 -> tag %v err=%v total=%v (read phase + write phase)\n",
				tag, err, p.Now().Sub(start))
			fmt.Fprintln(w, "  write-phase chain (seq 1): 1. WRITE tag to tmp; 2. ALLOCATE redirect addr")
			fmt.Fprintln(w, "  to tmp+8; 3. CAS_GT <tag|addr> with data-indirect from tmp.")
		})
		c.Run()
		tr.dump(w, "replica")

	case "txcommit":
		fmt.Fprintln(w, "PRISM-TX commit for a 1-key RMW (§8.2): three round trips total —")
		srv := c.NewServer("shard", prism.SoftwarePRISM)
		shard, err := prism.NewTXShard(srv, prism.TXOptions{NSlots: 8, MaxValue: 64, ExtraBuffers: 32})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		shard.Load(2, make([]byte, 64))
		tr := attachTrace(c, srv)
		conn := c.NewClientMachine("cli").Connect(srv)
		client := c.NewTXClient(1, []*prism.Conn{conn}, []tx.Meta{shard.Meta()})
		c.Go("trace", func(p *sim.Proc) {
			t := client.Begin()
			start := p.Now()
			v, err := t.Read(2)
			fmt.Fprintf(w, "  exec READ key 2 -> %dB err=%v RTT=%v\n", len(v), err, p.Now().Sub(start))
			t.Write(2, make([]byte, 64))
			start = p.Now()
			ts, err := t.Commit()
			fmt.Fprintf(w, "  commit -> ts=%v err=%v (prepare RT + install RT) total=%v\n",
				ts, err, p.Now().Sub(start))
			fmt.Fprintln(w, "  prepare chain: read-validation CAS_GT (RC|TS vs PW|PR, swap PR),")
			fmt.Fprintln(w, "  then CONDITIONAL write-validation CAS_GT (TS vs PW, swap PW);")
			fmt.Fprintln(w, "  install chain: WRITE ts|bound to tmp, ALLOCATE redirect, CAS_GT <C|addr|bound>.")
		})
		c.Run()
		tr.dump(w, "shard")

	default:
		return false
	}
	return true
}
