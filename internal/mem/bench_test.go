package mem

import "testing"

// BenchmarkMemTouch measures the allocated-page Touch fast path — the
// simulator's single hottest call — over a pre-touched page space with a
// striding access pattern.
func BenchmarkMemTouch(b *testing.B) {
	const pages = 1 << 16
	m := newMem(b, Config{NumPages: pages, FastPages: pages / 8, PageBytes: RegularPageBytes})
	for p := 0; p < pages; p++ {
		if _, err := m.Touch(PageID(p)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink Tier
	for i := 0; i < b.N; i++ {
		t, _ := m.Touch(PageID(uint64(i*31) & (pages - 1)))
		sink ^= t
	}
	_ = sink
}

// BenchmarkMemTouchFirst measures first-touch allocation throughput.
func BenchmarkMemTouchFirst(b *testing.B) {
	const pages = 1 << 16
	b.ReportAllocs()
	for i := 0; i < b.N; i += pages {
		b.StopTimer()
		m := newMem(b, Config{NumPages: pages, FastPages: pages / 8, PageBytes: RegularPageBytes})
		b.StartTimer()
		n := pages
		if rem := b.N - i; rem < n {
			n = rem
		}
		for p := 0; p < n; p++ {
			if _, err := m.Touch(PageID(p)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
