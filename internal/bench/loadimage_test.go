package bench

import (
	"testing"

	"prism/internal/abd"
	"prism/internal/kv"
	"prism/internal/transport"
	"prism/internal/tx"
)

// TestLoadedImagesGolden loads 1000 keys of mixed value lengths into each
// of PRISM-KV, Pilaf, PRISM-TX and FaRM, then loads key 500 a second time
// with a shorter value, and compares a checksum of each store's whole
// memory with the one its loader produced when every image was still built
// in a scratch buffer and copied into place. A loader that encodes in
// place must leave the same bytes: every slot, entry, version and object,
// every field the image rewrites, and the tail of an object a longer value
// once filled. The two replicas have no loader: their rows check the 1000
// blocks their constructors initialize against the image a constructor
// left when it copied whole buffer and header images into place.
func TestLoadedImagesGolden(t *testing.T) {
	const keys, maxValue = 1000, 512
	value := func(key int64, n int) []byte {
		v := make([]byte, n)
		for j := range v {
			v[j] = byte(key*31 + int64(j))
		}
		return v
	}
	kvOpts := kv.DefaultOptions(keys, maxValue)
	txOpts := tx.ShardOptions{NSlots: keys, MaxValue: maxValue, ExtraBuffers: 16}
	for _, c := range []struct {
		name  string
		want  uint64
		store func(transport.Host) (func(int64, []byte) error, error)
	}{
		{"prism-kv", 0xb8e267cf48d1c8cd, func(h transport.Host) (func(int64, []byte) error, error) {
			s, err := kv.NewServerOn(h, kvOpts)
			if err != nil {
				return nil, err
			}
			return s.Load, nil
		}},
		{"pilaf", 0x1e24b78954e0520e, func(h transport.Host) (func(int64, []byte) error, error) {
			s, err := kv.NewPilafServer(h, kvOpts)
			if err != nil {
				return nil, err
			}
			return s.Load, nil
		}},
		{"prism-tx", 0x1ad6e701d30f4f9b, func(h transport.Host) (func(int64, []byte) error, error) {
			s, err := tx.NewShard(h, txOpts)
			if err != nil {
				return nil, err
			}
			return s.Load, nil
		}},
		{"farm", 0x45edb811438538f4, func(h transport.Host) (func(int64, []byte) error, error) {
			s, err := tx.NewFarmServer(h, txOpts)
			if err != nil {
				return nil, err
			}
			return s.Load, nil
		}},
		{"prism-rs", 0xee199afe25b5f125, func(h transport.Host) (func(int64, []byte) error, error) {
			_, err := abd.NewReplica(h, abd.ReplicaOptions{NBlocks: keys, BlockSize: maxValue, ExtraBuffers: 16, VariableSize: true})
			return nil, err
		}},
		{"abd-lock", 0xaf941fe18ed59ce6, func(h transport.Host) (func(int64, []byte) error, error) {
			_, err := abd.NewLockReplica(h, keys, maxValue)
			return nil, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			host := transport.NewServer()
			load, err := c.store(host)
			if err != nil {
				t.Fatal(err)
			}
			if load != nil {
				for k := int64(0); k < keys; k++ {
					if err := load(k, value(k, 1+int(k*97)%maxValue)); err != nil {
						t.Fatalf("load %d: %v", k, err)
					}
				}
				if err := load(500, value(500, 5)); err != nil {
					t.Fatalf("second load of 500: %v", err)
				}
			}
			if got := spaceChecksum(t, host.Space()); got != c.want {
				t.Errorf("loaded image checksum %#x, want %#x", got, c.want)
			}
		})
	}
}
