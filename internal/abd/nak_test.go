package abd

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"prism/internal/memory"
	"prism/internal/model"
	"prism/internal/rdma"
	"prism/internal/sim"
)

// nakCluster builds three PRISM-RS replicas, replica i sized by opts[i],
// and a client whose view of replica i's metadata key is off by keyOff[i]:
// a replica whose NIC answers but refuses every verb on the store.
func nakCluster(t *testing.T, opts [3]ReplicaOptions, keyOff [3]memory.RKey) (*cluster, *Client) {
	t.Helper()
	cl := newCluster(t, 0, ReplicaOptions{}, model.SoftwarePRISM, 1)
	conns := make([]*rdma.Conn, 3)
	metas := make([]Meta, 3)
	for i := range conns {
		nic := rdma.NewServer(cl.net, fmt.Sprintf("replica-%d", i), model.SoftwarePRISM)
		r, err := NewReplica(nic, opts[i])
		if err != nil {
			t.Fatal(err)
		}
		cl.nics, cl.replicas = append(cl.nics, nic), append(cl.replicas, r)
		conns[i], metas[i] = cl.cliNIC[0].Connect(nic), r.Meta()
		metas[i].Key += keyOff[i]
	}
	return cl, NewClient(1, conns, metas)
}

// TestRSToleratesNakingReplica: a replica whose NIC answers while its
// memory does not — every verb NAKs, or every write-phase ALLOCATE finds
// its free list at its cap (RNR) — answers first, since it does no work,
// and must not fill the quorum. f+1 good answers complete every operation,
// and every GET returns the value just written.
func TestRSToleratesNakingReplica(t *testing.T) {
	roomy := ReplicaOptions{NBlocks: 4, BlockSize: 16, ExtraBuffers: 64}
	full := ReplicaOptions{NBlocks: 4, BlockSize: 16} // every buffer holds a block
	for _, tc := range []struct {
		name   string
		opts   [3]ReplicaOptions
		keyOff [3]memory.RKey
	}{
		{"meta key off by one", [3]ReplicaOptions{roomy, roomy, roomy}, [3]memory.RKey{1, 0, 0}},
		{"free list at its cap", [3]ReplicaOptions{full, roomy, roomy}, [3]memory.RKey{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, c := nakCluster(t, tc.opts, tc.keyOff)
			const pairs = 20
			failed := 0
			cl.e.Go("t", func(p *sim.Proc) {
				for n := 0; n < pairs; n++ {
					block, val := int64(n%4), bytes.Repeat([]byte{byte(n + 1)}, 16)
					perr := c.Put(p, block, val)
					got, gerr := c.Get(p, block)
					for _, err := range []error{perr, gerr} {
						if err != nil {
							failed++
							t.Logf("pair %d: %v", n, err)
						}
					}
					if perr == nil && gerr == nil && !bytes.Equal(got, val) {
						t.Errorf("GET %d returned %x, want %x", n, got, val)
					}
				}
			})
			cl.e.Run()
			if failed != 0 {
				t.Fatalf("%d of %d operations failed", failed, 2*pairs)
			}
		})
	}

	// Two of three NAK-ing: no quorum can answer well, and the error says
	// what every replica answered.
	cl, c := nakCluster(t, [3]ReplicaOptions{roomy, roomy, roomy}, [3]memory.RKey{1, 0, 1})
	var err error
	cl.e.Go("t", func(p *sim.Proc) { err = c.Put(p, 0, make([]byte, 16)) })
	cl.e.Run()
	if err == nil {
		t.Fatal("a PUT with two of three replicas NAK-ing succeeded")
	}
	for _, want := range []string{"replica 0: NAK_ACCESS", "replica 1: OK", "replica 2: NAK_ACCESS"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
