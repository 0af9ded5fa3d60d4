package prism

import (
	"bytes"
	"testing"

	"prism/internal/memory"
	"prism/internal/wire"
)

// TestStep holds Executor.Step to §3.4's CONDITIONAL rule, op by op on one
// connection: a fresh connection runs a CONDITIONAL op, consecutive
// CONDITIONAL ops after a failure are all skipped, an executed op resets
// the state whatever its flags, and a skipped op never clears a failure.
// Each case is one chained request, and the observer sees every op of it,
// skipped ones too, once, with Step's own request, index, result and meta.
func TestStep(t *testing.T) {
	x, r := testEnv(t)
	type seen struct {
		req    *wire.Request
		i      int
		res    *wire.Result
		meta   *OpMeta
		status wire.Status
	}
	var observed []seen
	x.Observer = func(req *wire.Request, i int, res *wire.Result, meta *OpMeta) {
		observed = append(observed, seen{req, i, res, meta, res.Status})
	}
	cell := func(i int) memory.Addr { return r.Base + memory.Addr(8*i) }
	write := func(i int, v string) wire.Op { return Write(r.Key, cell(i), []byte(v)) }
	read := func(i int) wire.Op { return Read(r.Key, cell(i), 8) }
	fails := Read(r.Key, r.Base+memory.Addr(r.Len), 8) // past the region: a NAK
	casFails := CAS(r.Key, r.Base, wire.CASGt, make([]byte, 8), nil, nil)
	type step struct {
		op   wire.Op
		want wire.Status
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"fresh-connection", []step{
			{Conditional(write(1, "fresh")), wire.StatusOK},
		}},
		{"consecutive-skips", []step{
			{fails, wire.StatusNAKAccess},
			{Conditional(write(2, "skipped")), wire.StatusNotExecuted},
			{Conditional(write(3, "skipped")), wire.StatusNotExecuted},
			{Conditional(read(4)), wire.StatusNotExecuted},
		}},
		{"success-resets", []step{
			{casFails, wire.StatusCASFailed},
			{Conditional(write(5, "skipped")), wire.StatusNotExecuted},
			{write(6, "resets"), wire.StatusOK},
			{Conditional(write(7, "runs")), wire.StatusOK},
		}},
		{"failed-conditional", []step{
			{Conditional(fails), wire.StatusNAKAccess},
			{Conditional(write(8, "skipped")), wire.StatusNotExecuted},
			{Conditional(fails), wire.StatusNotExecuted},
			{read(8), wire.StatusOK},
			{Conditional(casFails), wire.StatusCASFailed},
			{Conditional(write(9, "skipped")), wire.StatusNotExecuted},
		}},
	}
	for n, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c Conn
			req := &wire.Request{Conn: 3, Seq: uint64(n)}
			for _, s := range tc.steps {
				req.Ops = append(req.Ops, s.op)
			}
			for i, s := range tc.steps {
				was := c
				before, _ := x.Space.Read(r.Key, r.Base, r.Len)
				res := wire.Result{Status: wire.StatusOK}
				meta := OpMeta{Steps: 7}
				observed = observed[:0]
				executed := x.Step(&c, req, i, &res, &meta)
				if res.Status != s.want || executed != (s.want != wire.StatusNotExecuted) {
					t.Fatalf("step %d: %v executed=%v, want %v", i, res.Status, executed, s.want)
				}
				if want := (seen{req, i, &res, &meta, s.want}); len(observed) != 1 || observed[0] != want {
					t.Fatalf("step %d: the observer saw %+v, want once %+v", i, observed, want)
				}
				if executed {
					if c.failed == res.Status.OK() {
						t.Fatalf("step %d: failed=%v after %v", i, c.failed, res.Status)
					}
					continue
				}
				after, _ := x.Space.Read(r.Key, r.Base, r.Len)
				if c != was || meta != (OpMeta{Steps: 7}) || !bytes.Equal(before, after) {
					t.Fatalf("step %d: a skipped op changed its connection, meta or memory", i)
				}
			}
		})
	}
}
