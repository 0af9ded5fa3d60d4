package tx

import (
	"errors"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"prism/internal/check"
	"prism/internal/transport"
)

// liveTx is the transaction surface the live PRISM-TX and FaRM clients
// share, plus the version a read observed.
type liveTx interface {
	Read(key int64) ([]byte, error)
	Write(key int64, value []byte)
	Commit() (Timestamp, error)
	version(key int64) Timestamp
}

func (t *Tx) version(key int64) Timestamp     { return t.reads[key] }
func (t *FarmTx) version(key int64) Timestamp { return t.reads[key].version }

// serveShards serves each host from a transport.Server on a unix socket
// and returns the socket addresses.
func serveShards(t *testing.T, hosts []*transport.Server) []string {
	t.Helper()
	addrs := make([]string, len(hosts))
	for i, ts := range hosts {
		addrs[i] = filepath.Join(t.TempDir(), "shard.sock")
		l, err := net.Listen("unix", addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		go ts.Serve(l)
		t.Cleanup(func() { ts.Shutdown(time.Second) })
	}
	return addrs
}

// dialShards opens one connection to every address on a socket of its own.
func dialShards(t *testing.T, addrs []string) []*transport.Conn {
	t.Helper()
	conns := make([]*transport.Conn, len(addrs))
	for i, addr := range addrs {
		tc, err := transport.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tc.Close() })
		if conns[i], err = tc.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	return conns
}

// TestTxLiveSerializable runs PRISM-TX's and FaRM's one protocol over unix
// sockets: two shards served by transport.Servers, live clients each with
// their own sockets running read-modify-write transactions over 8 keys,
// some spanning both shards. Aborts are the protocols' answer to
// contention; a transport error fails the test. The committed history
// passes the protocol's oracle: timestamp order for PRISM-TX, and for
// FaRM, which serializes in lock order, conflict serializability.
func TestTxLiveSerializable(t *testing.T) {
	const nShards, nKeys, nClients, txPerClient = 2, 8, 4, 30
	opts := ShardOptions{NSlots: nKeys, MaxValue: 32, ExtraBuffers: 4096}
	// load builds a shard on each host with shard and loads key k on
	// shard k mod nShards.
	load := func(t *testing.T, hosts []*transport.Server, shard func(*transport.Server) (func(int64, []byte) error, error)) {
		for i := range hosts {
			hosts[i] = transport.NewServer()
			put, err := shard(hosts[i])
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(i); k < nKeys; k += nShards {
				if err := put(k, []byte{byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, sys := range []struct {
		name string
		// build provisions the shards and returns a client constructor.
		build  func(t *testing.T, hosts []*transport.Server) func(id uint16, conns []*transport.Conn) func() liveTx
		oracle func([]check.CommittedTx, uint64) error
	}{
		{"PRISM-TX", func(t *testing.T, hosts []*transport.Server) func(uint16, []*transport.Conn) func() liveTx {
			var metas []Meta
			load(t, hosts, func(host *transport.Server) (func(int64, []byte) error, error) {
				s, err := NewShard(host, opts)
				if err != nil {
					return nil, err
				}
				metas = append(metas, s.Meta())
				return s.Load, nil
			})
			return func(id uint16, conns []*transport.Conn) func() liveTx {
				c := NewClient(id, transport.Issuers(conns), metas)
				return func() liveTx { return c.Begin() }
			}
		}, check.CheckSerializable},
		{"FaRM", func(t *testing.T, hosts []*transport.Server) func(uint16, []*transport.Conn) func() liveTx {
			var metas []FarmMeta
			load(t, hosts, func(host *transport.Server) (func(int64, []byte) error, error) {
				s, err := NewFarmServer(host, opts)
				if err != nil {
					return nil, err
				}
				metas = append(metas, s.Meta())
				return s.Load, nil
			})
			return func(id uint16, conns []*transport.Conn) func() liveTx {
				c := NewFarmClient(id, transport.Issuers(conns), metas)
				return func() liveTx { return c.Begin() }
			}
		}, check.CheckConflictSerializable},
	} {
		t.Run(sys.name, func(t *testing.T) {
			hosts := make([]*transport.Server, nShards)
			client := sys.build(t, hosts)
			addrs := serveShards(t, hosts)
			var mu sync.Mutex
			var committed []check.CommittedTx
			spanning, aborts := 0, 0
			var wg sync.WaitGroup
			for n := 0; n < nClients; n++ {
				id := uint16(n + 1)
				begin := client(id, dialShards(t, addrs))
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id) * 31))
					for k := 0; k < txPerClient; k++ {
						keys := []int64{int64(rng.Intn(nKeys)), int64(rng.Intn(nKeys))}
						if keys[0] == keys[1] {
							keys = keys[:1]
						}
						for {
							tx, reads, writes := begin(), map[int64]uint64{}, map[int64]uint64{}
							for _, key := range keys {
								v, err := tx.Read(key)
								if err != nil {
									t.Errorf("client %d read %d: %v", id, key, err)
									return
								}
								reads[key] = uint64(tx.version(key))
								tx.Write(key, append([]byte{v[0] + 1}, byte(id)))
							}
							ts, err := tx.Commit()
							if errors.Is(err, ErrAborted) {
								mu.Lock()
								aborts++
								mu.Unlock()
								continue
							}
							if err != nil {
								t.Errorf("client %d commit: %v", id, err)
								return
							}
							for _, key := range keys {
								writes[key] = uint64(ts)
							}
							mu.Lock()
							committed = append(committed, check.CommittedTx{TS: uint64(ts), Reads: reads, Writes: writes, ClientID: int(id)})
							if len(keys) == 2 && keys[0]%nShards != keys[1]%nShards {
								spanning++
							}
							mu.Unlock()
							break
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			t.Logf("%d committed (%d spanning both shards), %d aborts", len(committed), spanning, aborts)
			if len(committed) != nClients*txPerClient || spanning == 0 {
				t.Fatalf("%d of %d transactions committed, %d spanning both shards", len(committed), nClients*txPerClient, spanning)
			}
			if err := sys.oracle(committed, uint64(InitialVersion)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
