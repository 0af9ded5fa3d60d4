package kv

import (
	"fmt"
	"testing"

	"prism/internal/transport"
)

// BenchmarkServerLoad prices a bulk load the way a live server's set-up
// pays it: one op provisions PRISM-KV for 4096 keys on a fresh host and
// loads every key, so it carves the slabs the entries land in as well as
// encoding each entry and slot.
func BenchmarkServerLoad(b *testing.B) {
	const keys = 4096
	for _, size := range []int{128, 512} {
		b.Run(fmt.Sprintf("value=%d", size), func(b *testing.B) {
			value := make([]byte, size)
			for i := range value {
				value[i] = byte(i)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewServerOn(transport.NewServer(), DefaultOptions(keys, size))
				if err != nil {
					b.Fatal(err)
				}
				for k := int64(0); k < keys; k++ {
					if err := s.Load(k, value); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
