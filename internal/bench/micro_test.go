package bench

import (
	"fmt"
	"testing"
	"time"

	"prism/internal/sim"
	"prism/internal/wire"
)

// TestMicroProbesSteady holds what lets measure time only two round
// trips: on an idle simulated link every trip after the warm-up takes the
// same virtual time. For every point of Fig1, Fig2 and RPCvsRDMA, built
// by the figures' own point functions, it times each op's warm-up and 64
// trips on a fresh env and requires every trip to equal what measure
// returns for that op on another.
func TestMicroProbesSteady(t *testing.T) {
	const trips = 64
	points := map[string]microPoint{}
	for di, d := range fig1Deployments {
		for opIdx, name := range fig1Ops {
			points[fmt.Sprintf("fig1/%v/%s", d, name)] = fig1Point(di, opIdx)
		}
	}
	for vi, v := range fig2Variants {
		for _, prof := range fig2Profiles {
			points["fig2/"+v.name+"/"+prof.Name] = fig2Point(vi, prof)
		}
	}
	for mi, m := range rpcMechanisms {
		points["rpcvsrdma/"+m.name] = rpcPoint(mi)
	}

	timed := 0
	for name, pt := range points {
		t.Run(name, func(t *testing.T) {
			m := newMicroEnv(pt.deploy, pt.params, 1)
			want := make([]time.Duration, len(pt.ops))
			for k, op := range pt.ops {
				want[k] = m.measure(op)
			}

			env := newMicroEnv(pt.deploy, pt.params, 1)
			got := make([][trips]time.Duration, len(pt.ops))
			var bad []wire.Status
			env.e.Go("steady", func(p *sim.Proc) {
				for k, op := range pt.ops {
					env.conn.Issue(op(env, 0))
					for i := range got[k] {
						ops := op(env, i+1)
						start := p.Now()
						res, err := env.conn.Issue(ops)
						got[k][i] = time.Duration(p.Now().Sub(start))
						if err != nil {
							panic(err)
						}
						for j, r := range res {
							if !r.Status.OK() && r.Status != wire.StatusCASFailed {
								bad = append(bad, r.Status)
							}
							// The env's free list holds the three buffers one
							// measure pops: hand each back for the next trip.
							if ops[j].Code == wire.OpAllocate && r.Status.OK() {
								env.srv.FreeList(1).Post(r.Addr)
							}
						}
					}
				}
			})
			env.e.Run()
			if len(bad) > 0 {
				t.Fatalf("op statuses %v", bad)
			}
			for k := range pt.ops {
				for i, d := range got[k] {
					if d != want[k] {
						t.Fatalf("op %d, trip %d took %v, measure returned %v", k, i+1, d, want[k])
					}
				}
			}
		})
		timed += len(pt.ops)
	}
	t.Logf("%d points, %d probe ops", len(points), timed)
}

// TestUnsupportedMicroPointsBuildNoEnv: Fig. 1's three ops that stock RDMA
// cannot run have no probe ops, and their points report zero latency and
// zero telemetry without standing up a micro env — which would allocate
// its engine, fabric, NIC and region.
func TestUnsupportedMicroPointsBuildNoEnv(t *testing.T) {
	var empty []string
	for di, d := range fig1Deployments {
		for opIdx, name := range fig1Ops {
			pt := fig1Point(di, opIdx)
			if len(pt.ops) > 0 {
				continue
			}
			empty = append(empty, fmt.Sprintf("%v/%s", d, name))
			var lat Point
			var tel Telemetry
			if allocs := testing.AllocsPerRun(10, func() { lat, tel = pt.run(1) }); allocs != 0 {
				t.Errorf("%v/%s: run allocated %v times, want 0 (no env)", d, name, allocs)
			}
			if lat != latencyPoint(0) || tel != (Telemetry{}) {
				t.Errorf("%v/%s: run = %+v, %+v; want zero latency and telemetry", d, name, lat, tel)
			}
		}
	}
	if len(empty) != 3 {
		t.Fatalf("points without ops %v, want Fig. 1's three stock-RDMA gaps", empty)
	}
}
