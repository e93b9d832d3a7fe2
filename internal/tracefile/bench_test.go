package tracefile

import (
	"path/filepath"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// benchTracePath writes a small trace once per benchmark process.
func benchTracePath(b *testing.B, ops int) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.htrc")
	w, err := Create(path, Meta{Name: "bench", NumPages: 1 << 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf []trace.Access
	for i := 0; i < ops; i++ {
		buf = buf[:0]
		for j := 0; j < 4; j++ {
			buf = append(buf, trace.Access{
				Page:  mem.PageID((i*7 + j*131) & 0xffff),
				Write: j == 3,
			})
		}
		if err := w.WriteOp(buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkTraceReplayBatch measures batched replay decoding: NextBatch
// over a wrapped (infinite) reader, in ops per benchmark iteration.
func BenchmarkTraceReplayBatch(b *testing.B) {
	path := benchTracePath(b, 1<<14)
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	bs := r.(trace.BatchSource)
	buf := make([]trace.Access, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += 512 {
		buf = bs.NextBatch(buf[:0], 512)
		if len(buf) == 0 {
			b.Fatal("empty batch", r.Err())
		}
	}
	if r.Err() != nil {
		b.Fatal(r.Err())
	}
}

// BenchmarkTraceReplayOp is the single-op fetch path for comparison.
func BenchmarkTraceReplayOp(b *testing.B) {
	path := benchTracePath(b, 1<<14)
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	var buf []trace.Access
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.NextOp(buf[:0])
		if len(buf) == 0 {
			b.Fatal("empty op", r.Err())
		}
	}
}

// benchTracePathV2 converts the v1 bench trace into the columnar container.
func benchTracePathV2(b *testing.B, ops int) string {
	b.Helper()
	v1 := benchTracePath(b, ops)
	v2 := filepath.Join(b.TempDir(), "bench.v2.htrc")
	if err := Convert(v1, v2, Version2); err != nil {
		b.Fatal(err)
	}
	return v2
}

// BenchmarkTraceReplayV2 pits the columnar reader against the v1
// streaming numbers above: batched decode and the zero-copy packed view.
func BenchmarkTraceReplayV2(b *testing.B) {
	const ops = 1 << 14

	b.Run("batch", func(b *testing.B) {
		r, err := OpenV2(benchTracePathV2(b, ops))
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		buf := make([]trace.Access, 0, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += 512 {
			buf = r.NextBatch(buf[:0], 512)
			if len(buf) == 0 {
				b.Fatal("empty batch", r.Err())
			}
		}
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	})

	b.Run("packed", func(b *testing.B) {
		r, err := OpenV2(benchTracePathV2(b, ops))
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; {
			view := r.NextPackedView(512)
			if len(view) == 0 {
				b.Fatal("empty view", r.Err())
			}
			done += len(view)
		}
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	})
}
