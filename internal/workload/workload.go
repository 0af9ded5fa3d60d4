// Package workload generates the key-access patterns of the paper's
// evaluation: YCSB workloads A (50/50 read/write) and C (read-only) over
// uniform and Zipf-distributed keys (§6.2), and YCSB-T style short
// read-modify-write transactions (§8.3).
package workload

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
)

// OpKind is a generated operation type.
type OpKind int

// Generated operation kinds.
const (
	OpGet OpKind = iota
	OpPut
)

// Mix describes a read/write workload over a keyspace.
type Mix struct {
	Keys      int64   // number of objects
	ReadFrac  float64 // fraction of GETs (1.0 = YCSB-C, 0.5 = YCSB-A)
	ValueSize int     // object size in bytes (paper: 512)
	// Zipf skew (s). 0 = uniform; the paper sweeps 0–1.2 for PRISM-RS and
	// 0–1.6 for PRISM-TX contention figures.
	Theta float64
}

// YCSBC returns the paper's read-only configuration: 8 M 512 B objects,
// uniform access (§6.2).
func YCSBC() Mix { return Mix{Keys: 8 << 20, ReadFrac: 1.0, ValueSize: 512} }

// YCSBA returns the 50/50 configuration.
func YCSBA() Mix { return Mix{Keys: 8 << 20, ReadFrac: 0.5, ValueSize: 512} }

// YCSBB returns the read-mostly (95/5) configuration.
func YCSBB() Mix { return Mix{Keys: 8 << 20, ReadFrac: 0.95, ValueSize: 512} }

// Generator draws operations from a Mix. Each closed-loop client owns one
// Generator (with its own RNG) for determinism.
type Generator struct {
	mix  Mix
	rng  *rand.Rand
	zipf *Zipf
}

// NewGenerator returns a generator over mix seeded with seed.
func NewGenerator(mix Mix, seed int64) *Generator {
	g := &Generator{mix: mix, rng: rand.New(rand.NewSource(seed))}
	if mix.Theta > 0 {
		g.zipf = NewZipf(mix.Keys, mix.Theta)
	}
	return g
}

// Next draws one operation: one draw picks its kind, then NextKey its key.
func (g *Generator) Next() (OpKind, int64) {
	kind := OpPut
	if g.rng.Float64() < g.mix.ReadFrac {
		kind = OpGet
	}
	return kind, g.NextKey()
}

// NextKey draws a key index according to the configured distribution.
func (g *Generator) NextKey() int64 {
	if g.zipf != nil {
		return g.zipf.Draw(g.rng)
	}
	return g.rng.Int63n(g.mix.Keys)
}

// Value deterministically materializes the object payload for key.
func (g *Generator) Value(key int64, version int) []byte {
	return g.AppendValue(make([]byte, 0, g.mix.ValueSize), key, version)
}

// rampTable is two periods of the byte ramp 0, 1, …, 255: any period of
// the ramp is the 256 bytes at some offset below 256.
var rampTable = func() (t [512]byte) {
	for i := range t {
		t[i] = byte(i)
	}
	return t
}()

// AppendValue appends key's payload at version to dst: the key and the
// version (8 bytes each, little-endian; a ValueSize below 16 truncates
// them), then byte(key+i)^byte(version) at every later offset i. That ramp
// repeats every 256 bytes, so its first period is copied from rampTable
// (and XORed with the version's low byte, unless that is 0, as in every
// bulk load); the rest is copied from it, doubling.
func (g *Generator) AppendValue(dst []byte, key int64, version int) []byte {
	off, n := len(dst), g.mix.ValueSize
	dst = slices.Grow(dst, n)[:off+n]
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(key))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(version))
	ramp := dst[off+copy(dst[off:], hdr[:]):]
	m := copy(ramp[:min(len(ramp), 256)], rampTable[byte(key+int64(len(hdr))):])
	if v := byte(version); v != 0 {
		for i := range ramp[:m] {
			ramp[i] ^= v
		}
	}
	for m < len(ramp) {
		m += copy(ramp[m:], ramp[:m])
	}
	return dst
}

// KeyBytes returns the canonical 8-byte key encoding (paper: 8 B keys).
func KeyBytes(key int64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(key))
	return b
}

// Zipf draws ranks from a Zipf distribution with exponent theta over
// [0, n) using the Gray et al. quantile approximation — O(1) per draw with
// no large precomputed tables, the standard approach in YCSB
// implementations.
type Zipf struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipf prepares a Zipf sampler for n items with skew theta in (0, 2),
// theta != 1.
func NewZipf(n int64, theta float64) *Zipf {
	if n <= 0 {
		panic("workload: Zipf over empty keyspace")
	}
	if theta <= 0 {
		panic("workload: use uniform sampling for theta=0")
	}
	if theta == 1 {
		theta = 0.99999 // the closed form has a pole at exactly 1
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zetaApprox(n, theta)
	z.zeta2 = zetaApprox(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaApprox computes the generalized harmonic number H_{n,theta}, exactly
// for small n and via the Euler–Maclaurin integral approximation for large
// n (exact summation over 8M keys per sampler would be wasteful).
func zetaApprox(n int64, theta float64) float64 {
	const exactLimit = 10000
	if n <= exactLimit {
		sum := 0.0
		for i := int64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	sum := 0.0
	for i := int64(1); i <= exactLimit; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	// integral of x^-theta from exactLimit to n
	a := float64(exactLimit)
	b := float64(n)
	sum += (math.Pow(b, 1-theta) - math.Pow(a, 1-theta)) / (1 - theta)
	return sum
}

// Draw samples a rank in [0, n); rank 0 is the hottest item.
func (z *Zipf) Draw(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r < 0 {
		r = 0
	}
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// TxMix describes YCSB-T style transactions: short read-modify-write
// transactions over the keyspace (§8.3).
type TxMix struct {
	Keys      int64
	ValueSize int
	// KeysPerTx is the number of keys each transaction reads and then
	// writes (read-modify-write).
	KeysPerTx int
	Theta     float64
}

// YCSBT returns the paper's transactional configuration: 8 M 512 B
// objects, short RMW transactions.
func YCSBT() TxMix { return TxMix{Keys: 8 << 20, ValueSize: 512, KeysPerTx: 1} }

// TxGenerator draws transactions.
type TxGenerator struct {
	mix  TxMix
	rng  *rand.Rand
	zipf *Zipf
}

// NewTxGenerator returns a transaction generator seeded with seed.
func NewTxGenerator(mix TxMix, seed int64) *TxGenerator {
	g := &TxGenerator{mix: mix, rng: rand.New(rand.NewSource(seed))}
	if mix.Theta > 0 {
		g.zipf = NewZipf(mix.Keys, mix.Theta)
	}
	return g
}

// Next draws the key set for one transaction (distinct keys).
func (g *TxGenerator) Next() []int64 {
	keys := make([]int64, 0, g.mix.KeysPerTx)
	seen := make(map[int64]struct{}, g.mix.KeysPerTx)
	for len(keys) < g.mix.KeysPerTx {
		var k int64
		if g.zipf != nil {
			k = g.zipf.Draw(g.rng)
		} else {
			k = g.rng.Int63n(g.mix.Keys)
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

// Value materializes a payload for key (same scheme as Generator.Value).
func (g *TxGenerator) Value(key int64, version int) []byte {
	gen := Generator{mix: Mix{ValueSize: g.mix.ValueSize}}
	return gen.Value(key, version)
}
