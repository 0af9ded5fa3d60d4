package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMixReadFraction(t *testing.T) {
	g := NewGenerator(Mix{Keys: 1000, ReadFrac: 0.5, ValueSize: 64}, 1)
	reads := 0
	const n = 20000
	for i := 0; i < n; i++ {
		kind, key := g.Next()
		if key < 0 || key >= 1000 {
			t.Fatalf("key %d out of range", key)
		}
		if kind == OpGet {
			reads++
		}
	}
	frac := float64(reads) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("read fraction %.3f, want ≈0.5", frac)
	}
}

func TestReadOnlyMix(t *testing.T) {
	g := NewGenerator(YCSBC(), 1)
	for i := 0; i < 1000; i++ {
		kind, _ := g.Next()
		if kind != OpGet {
			t.Fatal("YCSB-C generated a write")
		}
	}
}

func TestUniformCoversKeyspace(t *testing.T) {
	g := NewGenerator(Mix{Keys: 10, ReadFrac: 1, ValueSize: 8}, 2)
	seen := make(map[int64]int)
	for i := 0; i < 10000; i++ {
		_, k := g.Next()
		seen[k]++
	}
	for k := int64(0); k < 10; k++ {
		if seen[k] < 500 {
			t.Fatalf("key %d drawn only %d/10000 times under uniform", k, seen[k])
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher theta concentrates more mass on the hottest key.
	hotMass := func(theta float64) float64 {
		z := NewZipf(10000, theta)
		rng := rand.New(rand.NewSource(3))
		hot := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if z.Draw(rng) == 0 {
				hot++
			}
		}
		return float64(hot) / n
	}
	low, mid, high := hotMass(0.5), hotMass(0.9), hotMass(1.2)
	if !(low < mid && mid < high) {
		t.Fatalf("hot-key mass not increasing with skew: %.4f %.4f %.4f", low, mid, high)
	}
	if high < 0.05 {
		t.Fatalf("theta=1.2 hot-key mass %.4f implausibly small", high)
	}
}

func TestZipfBounds(t *testing.T) {
	f := func(seed int64, theta8 uint8) bool {
		theta := 0.1 + float64(theta8%15)/10 // 0.1 .. 1.5
		z := NewZipf(1000, theta)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			r := z.Draw(rng)
			if r < 0 || r >= 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestZetaApproxMatchesExact(t *testing.T) {
	// The integral approximation should be close to exact summation.
	for _, theta := range []float64{0.5, 0.9, 0.99, 1.2} {
		exact := 0.0
		n := int64(50000)
		for i := int64(1); i <= n; i++ {
			exact += 1 / math.Pow(float64(i), theta)
		}
		approx := zetaApprox(n, theta)
		if math.Abs(approx-exact)/exact > 0.01 {
			t.Fatalf("zeta(%d, %.2f): approx %.4f vs exact %.4f", n, theta, approx, exact)
		}
	}
}

func TestValueDeterministicAndDistinct(t *testing.T) {
	g := NewGenerator(Mix{Keys: 100, ReadFrac: 1, ValueSize: 64}, 5)
	a := g.Value(7, 1)
	b := g.Value(7, 1)
	if string(a) != string(b) {
		t.Fatal("Value not deterministic")
	}
	c := g.Value(7, 2)
	if string(a) == string(c) {
		t.Fatal("versions produce identical values")
	}
	d := g.Value(8, 1)
	if string(a) == string(d) {
		t.Fatal("keys produce identical values")
	}
	if len(a) != 64 {
		t.Fatalf("value size %d", len(a))
	}
}

// A transaction's one key lies in the keyspace, uniform or skewed.
func TestTxGeneratorKeyInRange(t *testing.T) {
	for _, theta := range []float64{0, 0.99} {
		g := NewTxGenerator(TxMix{Keys: 100, ValueSize: 16, Theta: theta}, 6)
		for i := 0; i < 1000; i++ {
			if k := g.Next(); k < 0 || k >= 100 {
				t.Fatalf("theta %v: key %d out of range", theta, k)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []int64 {
		g := NewGenerator(Mix{Keys: 1 << 20, ReadFrac: 0.5, ValueSize: 8, Theta: 0.9}, 42)
		var out []int64
		for i := 0; i < 100; i++ {
			_, k := g.Next()
			out = append(out, k)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic per seed")
		}
	}
}

// Next must make exactly the draws it always made — one kind draw against
// ReadFrac, then one key draw — or every workload-driven figure shifts.
func TestClassicMixStreamUnchanged(t *testing.T) {
	mix := Mix{Keys: 1 << 20, ReadFrac: 0.5, ValueSize: 8, Theta: 0.9}
	type op struct {
		kind OpKind
		key  int64
	}
	legacy := func() []op {
		g := NewGenerator(mix, 42)
		var out []op
		for i := 0; i < 200; i++ {
			kind := OpPut
			if g.rng.Float64() < g.mix.ReadFrac {
				kind = OpGet
			}
			out = append(out, op{kind, g.NextKey()})
		}
		return out
	}()
	g := NewGenerator(mix, 42)
	for i, want := range legacy {
		if kind, key := g.Next(); (op{kind, key}) != want {
			t.Fatalf("op %d: Next %v %d, legacy stream %+v", i, kind, key, want)
		}
	}
}

func TestKeyBytes(t *testing.T) {
	b := KeyBytes(0x0102030405060708)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("KeyBytes = %x", b)
		}
	}
}

func TestStandardMixes(t *testing.T) {
	for _, tc := range []struct {
		name string
		mix  Mix
		frac float64
	}{
		{"YCSB-A", YCSBA(), 0.5},
		{"YCSB-B", YCSBB(), 0.95},
		{"YCSB-C", YCSBC(), 1.0},
	} {
		if tc.mix.ReadFrac != tc.frac {
			t.Fatalf("%s read fraction %v", tc.name, tc.mix.ReadFrac)
		}
		if tc.mix.Keys != 8<<20 || tc.mix.ValueSize != 512 {
			t.Fatalf("%s not at paper scale", tc.name)
		}
	}
	if m := YCSBT(); m.Keys != 8<<20 {
		t.Fatalf("YCSB-T config: %+v", m)
	}
}

// referenceValue is the per-byte definition of a payload: what Value was
// before AppendValue laid the ramp down by copy (sizes below 16, which it
// could not make, truncate the header).
func referenceValue(size int, key int64, version int) []byte {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(key))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(version))
	v := make([]byte, size)
	copy(v, hdr[:])
	for i := 16; i < len(v); i++ {
		v[i] = byte(key+int64(i)) ^ byte(version)
	}
	return v
}

func TestAppendValueMatchesReference(t *testing.T) {
	prefix := []byte("prefix")
	check := func(size int, key int64, version int) {
		t.Helper()
		g := NewGenerator(Mix{Keys: 100, ReadFrac: 1, ValueSize: size}, 1)
		want := referenceValue(size, key, version)
		got := g.AppendValue(append([]byte(nil), prefix...), key, version)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("size %d key %d version %d: prefix overwritten: %q", size, key, version, got[:len(prefix)])
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("size %d key %d version %d: AppendValue differs from the per-byte reference", size, key, version)
		}
		if size >= 16 && !bytes.Equal(g.Value(key, version), want) {
			t.Fatalf("size %d key %d version %d: Value differs from the per-byte reference", size, key, version)
		}
	}
	keys := []int64{0, 7, -1, -257, 1<<40 + 3, math.MinInt64, math.MaxInt64}
	for size := 0; size <= 1100; size++ {
		for i, key := range keys {
			check(size, key, 43*i)
		}
	}
	for version := 0; version <= 300; version++ {
		for _, size := range []int{15, 16, 17, 271, 272, 273, 512, 1100} {
			check(size, -5, version)
			check(size, 12345, version)
		}
	}
}
