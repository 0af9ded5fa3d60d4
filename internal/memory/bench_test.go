package memory

import "testing"

func benchSpace(b *testing.B) (*Space, RKey, Addr) {
	b.Helper()
	s := NewSpace()
	r, err := s.Register(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	return s, r.Key, r.Base
}

// BenchmarkRead is the copying path: one allocation per call.
func BenchmarkRead(b *testing.B) {
	s, key, base := benchSpace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(key, base+Addr(i%4096), 512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeek is the zero-copy path used when the caller does not retain
// the bytes past the current simulation event.
func BenchmarkPeek(b *testing.B) {
	s, key, base := benchSpace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Peek(key, base+Addr(i%4096), 512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadInto copies into a caller-owned buffer: no allocation.
func BenchmarkReadInto(b *testing.B) {
	s, key, base := benchSpace(b)
	dst := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ReadInto(dst, key, base+Addr(i%4096)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindAlternating writes alternately to two regions of a
// 16-region space, the pattern of a bulk load (an entry in a value slab,
// then its slot in the table) and of an indirect READ (a pointer, then
// its target).
func BenchmarkFindAlternating(b *testing.B) {
	s := NewSpace()
	var regs []*Region
	for i := 0; i < 16; i++ {
		r, err := s.Register(4096)
		if err != nil {
			b.Fatal(err)
		}
		regs = append(regs, r)
	}
	pair := [2]*Region{regs[2], regs[9]}
	var word [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pair[i&1]
		if err := s.Write(r.Key, r.Base+Addr(i%512*8), word[:]); err != nil {
			b.Fatal(err)
		}
	}
}
