package main

import (
	"math/rand"
	"time"
)

// kvStore is what a load client calls. kv.LiveClient is the system
// under test; memStore answers from memory, which prices the load
// generator itself.
type kvStore interface {
	Get(key int64) ([]byte, error)
	GetBatch(keys []int64, visit func(i int, val []byte, err error)) error
	Put(key int64, value []byte) error
	Scan(start int64, budget uint64, visit func(key int64, value []byte) error) (int64, error)
	FlushFrees() error
}

// memStore holds the preloaded values in a slice and does nothing else.
type memStore struct {
	vals      [][]byte
	valueSize int
}

func newMemStore(seed int64, valueSize int) *memStore {
	m := &memStore{valueSize: valueSize}
	for k := int64(0); k < nKeys; k++ {
		v := make([]byte, valueSize)
		fillValue(v, seed, k, 0, 0)
		m.vals = append(m.vals, v)
	}
	return m
}

func (m *memStore) Get(key int64) ([]byte, error) { return m.vals[key], nil }

func (m *memStore) GetBatch(keys []int64, visit func(i int, val []byte, err error)) error {
	for i, k := range keys {
		visit(i, m.vals[k], nil)
	}
	return nil
}

func (m *memStore) Put(key int64, value []byte) error {
	copy(m.vals[key], value)
	return nil
}

// Scan visits as many entries as the budget holds at the live store's
// record size: [len u32 | klen | key | value].
func (m *memStore) Scan(start int64, budget uint64, visit func(key int64, value []byte) error) (int64, error) {
	rec := uint64(4 + entryHeader + m.valueSize)
	k := start
	for used := uint64(0); k < nKeys && used+rec <= budget; used += rec {
		if err := visit(k, m.vals[k]); err != nil {
			return k, err
		}
		k++
	}
	return k, nil
}

func (m *memStore) FlushFrees() error { return nil }

// generatorNS is the load loop's own cost per call in nanoseconds: key
// choice, value generation, verification and latency bookkeeping against
// a store that answers from memory.
func generatorNS(spec liveSpec, o runOpts) (float64, error) {
	e := &liveEnv{spec: spec, seed: o.seed}
	c := &loadClient{
		env: e, kvc: newMemStore(o.seed, spec.valueSize),
		rng:  rand.New(rand.NewSource(o.seed)),
		val:  make([]byte, spec.valueSize),
		keys: make([]int64, trainLen),
	}
	calls := int64(20_000/o.shrink + 10)
	c.run(calls / 10)
	t0 := time.Now()
	c.run(calls)
	d := time.Since(t0)
	if c.firstErr != nil {
		return 0, c.firstErr
	}
	return float64(d) / float64(calls), nil
}
