package integration

import (
	"reflect"
	"strings"
	"testing"

	"prism/internal/abd"
	"prism/internal/kv"
	"prism/internal/transport"
	"prism/internal/tx"
)

// storeMeta is one store of TestEveryStoreServesItsMeta: its app name,
// and a build that provisions it on a host and returns its Meta and a new
// pointer of the Meta's type to fetch into.
type storeMeta struct {
	app   string
	build func(h transport.Host) (want, into any, err error)
}

func metaRow[M any, S interface{ Meta() M }](app string, build func(transport.Host) (S, error)) storeMeta {
	return storeMeta{app, func(h transport.Host) (any, any, error) {
		s, err := build(h)
		if err != nil {
			return nil, nil, err
		}
		return s.Meta(), new(M), nil
	}}
}

// TestEveryStoreServesItsMeta: each of the seven stores publishes its Meta
// where it is provisioned, and transport.FetchMeta returns a value equal
// to the store's Meta() over both transports: a live server on a net.Pipe
// and a simulated NIC, fetched from a simulation process. A fetch under
// another app's name fails naming both apps, and a host that published
// nothing fails rather than returning a zero Meta.
func TestEveryStoreServesItsMeta(t *testing.T) {
	stores := []storeMeta{
		metaRow[kv.Meta]("kv", func(h transport.Host) (*kv.Server, error) {
			return kv.NewServerOn(h, kv.DefaultOptions(16, 64))
		}),
		metaRow[kv.ChainMeta]("chain", func(h transport.Host) (*kv.ChainStore, error) {
			return kv.NewChainStoreOn(h, kv.ChainOptions{Buckets: 4, Depth: 3, MaxValue: 16})
		}),
		metaRow[kv.PilafMeta]("pilaf", func(h transport.Host) (*kv.PilafServer, error) {
			return kv.NewPilafServer(h, kv.DefaultOptions(16, 64))
		}),
		metaRow[abd.Meta]("rs", func(h transport.Host) (*abd.Replica, error) {
			return abd.NewReplica(h, abd.ReplicaOptions{NBlocks: 4, BlockSize: 16, ExtraBuffers: 4, VariableSize: true})
		}),
		metaRow[abd.LockMeta]("lock", func(h transport.Host) (*abd.LockReplica, error) {
			return abd.NewLockReplica(h, 4, 16)
		}),
		metaRow[tx.Meta]("tx", func(h transport.Host) (*tx.Shard, error) {
			return tx.NewShard(h, tx.ShardOptions{NSlots: 4, MaxValue: 16, ExtraBuffers: 4})
		}),
		metaRow[tx.FarmMeta]("farm", func(h transport.Host) (*tx.FarmServer, error) {
			return tx.NewFarmServer(h, tx.ShardOptions{NSlots: 4, MaxValue: 16})
		}),
	}
	transports := []struct {
		name string
		on   func(t *testing.T, provision func(transport.Host), body func(is []transport.Issuer))
	}{
		{"sim", onSim},
		{"live", onLive},
	}
	for _, tr := range transports {
		for _, s := range stores {
			t.Run(tr.name+"/"+s.app, func(t *testing.T) {
				var want, into any
				tr.on(t, func(h transport.Host) {
					var err error
					if want, into, err = s.build(h); err != nil {
						t.Fatal(err)
					}
				}, func(is []transport.Issuer) {
					if err := transport.FetchMeta(is[0], s.app, into); err != nil {
						t.Errorf("FetchMeta: %v", err)
						return
					}
					if got := reflect.ValueOf(into).Elem().Interface(); !reflect.DeepEqual(got, want) {
						t.Errorf("FetchMeta = %+v, want %+v", got, want)
					}
					other := "kv"
					if s.app == other {
						other = "farm"
					}
					err := transport.FetchMeta(is[1], other, new(struct{}))
					if want := "server serves " + s.app + ", not " + other; err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("fetching %s from a %s server: %v, want an error saying %q", other, s.app, err, want)
					}
				})
			})
		}
		t.Run(tr.name+"/unpublished", func(t *testing.T) {
			tr.on(t, func(transport.Host) {}, func(is []transport.Issuer) {
				var m kv.Meta
				err := transport.FetchMeta(is[0], "kv", &m)
				if err == nil || !strings.Contains(err.Error(), "not kv") {
					t.Errorf("fetching from a host that published nothing: %v, %+v", err, m)
				}
				if !reflect.DeepEqual(m, kv.Meta{}) {
					t.Errorf("a failed fetch filled in %+v", m)
				}
			})
		})
	}
}
