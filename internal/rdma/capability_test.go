package rdma

import (
	"fmt"
	"testing"

	"prism/internal/alloc"
	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/prism"
	"prism/internal/sim"
	"prism/internal/wire"
)

type capabilityCase struct {
	name string
	op   wire.Op
}

// capabilityCases is every opcode (and one past the last) with no flag
// and with each flag; the enhanced CAS at widths 8, 16 and 32, in each
// mode, with each mask absent, full or partial; and malformed CASes: mask
// and data widths that disagree, empty masks that are not nil (the wire
// cannot tell them from absent ones) and no data.
func capabilityCases(key memory.RKey, base memory.Addr) []capabilityCase {
	var cs []capabilityCase
	add := func(name string, op wire.Op) { cs = append(cs, capabilityCase{name, op}) }
	prog := make([]byte, prism.ProgHeaderLen)
	for _, op := range []wire.Op{
		{Code: wire.OpInvalid},
		prism.Read(key, base, 8),
		prism.Write(key, base, make([]byte, 8)),
		prism.CAS(key, base, wire.CASEq, make([]byte, 8), nil, nil),
		prism.ClassicCAS(key, base, 0, 1),
		{Code: wire.OpFetchAdd, RKey: key, Target: base, Data: make([]byte, 8)},
		prism.Allocate(1, []byte("x")),
		prism.Send([]byte{1}),
		prism.Chase(key, base, prog, wire.CASEq, nil, 8),
		prism.Scan(key, base, prog, 64),
		{Code: wire.OpScan + 1},
	} {
		for _, f := range []wire.Flags{0, wire.FlagTargetIndirect, wire.FlagDataIndirect,
			wire.FlagBounded, wire.FlagConditional, wire.FlagRedirect} {
			op.Flags = f
			add(fmt.Sprintf("%v/flags=%#x", op.Code, uint8(f)), op)
		}
	}
	for _, w := range []int{8, 16, 32} {
		masks := []struct {
			name string
			m    []byte
		}{{"absent", nil}, {"full", prism.FullMask(w)}, {"partial", prism.FieldMask(w, 0, w/2)}}
		for _, mode := range []wire.CASMode{wire.CASEq, wire.CASGt, wire.CASLt} {
			for _, cm := range masks {
				for _, sm := range masks {
					add(fmt.Sprintf("CAS/w=%d/%v/cmp=%s/swap=%s", w, mode, cm.name, sm.name),
						prism.CAS(key, base, mode, make([]byte, w), cm.m, sm.m))
				}
			}
		}
	}
	eq := func(data, cmp, swap []byte) wire.Op { return prism.CAS(key, base, wire.CASEq, data, cmp, swap) }
	add("CAS/data=8/cmp=full16", eq(make([]byte, 8), prism.FullMask(16), nil))
	add("CAS/data=16/cmp=full8", eq(make([]byte, 16), prism.FullMask(8), nil))
	add("CAS/data=8/swap=full4", eq(make([]byte, 8), nil, prism.FullMask(4)))
	add("CAS/data=8/cmp=empty/swap=empty", eq(make([]byte, 8), []byte{}, []byte{}))
	add("CAS/data=0", eq(nil, nil, nil))
	return cs
}

// stockOps names the ops of capabilityCases a stock RDMA NIC executes:
// the classic verbs without flags, and the enhanced CAS's classic subset.
var stockOps = map[string]bool{
	"READ/flags=0x0":                    true,
	"WRITE/flags=0x0":                   true,
	"CAS/flags=0x0":                     true,
	"CLASSIC_CAS/flags=0x0":             true,
	"FETCH_ADD/flags=0x0":               true,
	"CAS/w=8/EQ/cmp=absent/swap=absent": true,
	"CAS/w=8/EQ/cmp=absent/swap=full":   true,
	"CAS/w=8/EQ/cmp=full/swap=absent":   true,
	"CAS/w=8/EQ/cmp=full/swap=full":     true,
	"CAS/data=8/cmp=empty/swap=empty":   true,
}

// TestStockRuleAgrees: for every op of the capability table, the one
// rule (model.StockExecutes) gives the answer stockOps records, and a
// stock NIC's answer to the op alone and the executor's PRISMOnly agree
// with it.
func TestStockRuleAgrees(t *testing.T) {
	v := newEnv(t, model.HardwareRDMA, nil)
	v.srv.AddFreeList(alloc.NewFreeList(1, 64, v.reg.Key, v.srv.Space(), 64))
	x := &prism.Executor{Space: v.srv.Space(), FreeLists: v.srv.FreeLists()}
	cases := capabilityCases(v.reg.Key, v.reg.Base)
	v.run(t, func(p *sim.Proc) {
		for _, c := range cases {
			stock := model.StockExecutes(&c.op)
			if stock != stockOps[c.name] {
				t.Errorf("%s: rule says stock = %v, want %v", c.name, stock, stockOps[c.name])
			}
			res, _ := v.conn.Issue([]wire.Op{c.op})
			if nic := res[0].Status != wire.StatusUnsupported; nic != stock {
				t.Errorf("%s: stock NIC executes = %v (%v), rule says %v", c.name, nic, res[0].Status, stock)
			}
			if _, meta := x.Exec(&c.op); meta.PRISMOnly == stock {
				t.Errorf("%s: executor PRISMOnly = %v, rule says stock = %v", c.name, meta.PRISMOnly, stock)
			}
		}
	})
	if len(cases) != 152 {
		t.Errorf("capability table has %d ops, want 152", len(cases))
	}
}
