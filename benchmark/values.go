package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Values are a function of (run seed, key, writer, sequence) and carry a
// checksum, so every byte a GET, a train or a SCAN entry returns can be
// verified without the generator remembering what it wrote:
//
//	[ key u64 | writer u32 | seq u32 | crc32c u32 | payload ... ]
//
// The checksum covers the 16 header bytes before it and the payload
// after it. The store under test only ever sees these bytes and the
// keys; the seed never reaches it.
const valueHeader = 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func valueSum(v []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, v[:16]), castagnoli, v[valueHeader:])
}

// fillValue writes the value for (key, writer, seq) into v.
func fillValue(v []byte, seed int64, key int64, writer, seq uint32) {
	binary.LittleEndian.PutUint64(v, uint64(key))
	binary.LittleEndian.PutUint32(v[8:], writer)
	binary.LittleEndian.PutUint32(v[12:], seq)
	// xorshift64* stream seeded from the identity, so equal identities
	// give equal bytes and neighbours do not.
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(key)<<32 ^ uint64(writer)<<20 ^ uint64(seq) | 1
	p := v[valueHeader:]
	for len(p) >= 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(p, x*0x2545f4914f6cdd1d)
		p = p[8:]
	}
	for i := range p {
		p[i] = byte(x >> (8 * uint(i)))
	}
	binary.LittleEndian.PutUint32(v[16:], valueSum(v))
}

// checkValue verifies that v is an intact value of the given size for key.
func checkValue(v []byte, key int64, size int) error {
	if len(v) != size {
		return fmt.Errorf("key %d: value has %d bytes, want %d", key, len(v), size)
	}
	if got := int64(binary.LittleEndian.Uint64(v)); got != key {
		return fmt.Errorf("key %d: value belongs to key %d", key, got)
	}
	if binary.LittleEndian.Uint32(v[16:]) != valueSum(v) {
		return fmt.Errorf("key %d: checksum mismatch", key)
	}
	return nil
}
