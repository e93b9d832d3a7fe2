package silo

import (
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

func smallCfg() Config {
	return Config{Records: 10_000, Seed: 1}
}

func newDB(tb testing.TB, cfg Config) *DB {
	tb.Helper()
	db, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// height counts the tree's levels along its leftmost path.
func height(db *DB) int {
	h := 1
	for id := db.root; len(db.nodes[id].kids) > 0; id = db.nodes[id].kids[0] {
		h++
	}
	return h
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Records: 10}); err == nil {
		t.Error("too-few records must fail")
	}
}

func TestTreeShape(t *testing.T) {
	db := newDB(t, smallCfg())
	// 10k records / 256 per leaf = 40 leaves; 40 leaves / 256 → 1 root.
	if h := height(db); h != 2 {
		t.Errorf("Height = %d, want 2", h)
	}
	if int(db.recBase) != 41 {
		t.Errorf("index pages = %d, want 41 (40 leaves + root)", db.recBase)
	}
	// 10k records × 1 KB / 4 KB = 2500 record pages.
	if got := db.NumPages() - int(db.recBase); got != 2500 {
		t.Errorf("record pages = %d, want 2500", got)
	}
}

func TestGetFindsEveryKey(t *testing.T) {
	db := newDB(t, smallCfg())
	for key := uint64(0); key < 10_000; key += 97 {
		acc, ok := db.Get(key, nil)
		if !ok {
			t.Fatalf("key %d not found", key)
		}
		// Root→leaf walk + record touch.
		if len(acc) != height(db)+1 {
			t.Fatalf("key %d: %d accesses, want height+1 = %d", key, len(acc), height(db)+1)
		}
		// Final access is a record page in the heap region.
		last := acc[len(acc)-1]
		if int(last.Page) < int(db.recBase) || int(last.Page) >= db.NumPages() {
			t.Fatalf("record access outside heap region: page %d", last.Page)
		}
		if last.Write {
			t.Fatal("Get must not write")
		}
	}
}

func TestGetMissingKey(t *testing.T) {
	db := newDB(t, smallCfg())
	if _, ok := db.Get(999_999, nil); ok {
		t.Error("lookup beyond key space must miss")
	}
}

// TestYCSBCMixAllReads: every op is a read of its scrambled-Zipf key, and
// each op still draws YCSB's read/update coin from the RNG the key sampler
// shares, which the silo stream and every pinned silo result depend on.
func TestYCSBCMixAllReads(t *testing.T) {
	db := newDB(t, smallCfg())
	ref := newDB(t, smallCfg())
	var buf []trace.Access
	for i := 0; i < 5000; i++ {
		buf = db.NextOp(buf[:0])
		for _, a := range buf {
			if a.Write {
				t.Fatalf("op %d writes page %d; YCSB-C only reads", i, a.Page)
			}
		}
		rank := ref.zipf.Next()
		ref.rng.Float64()
		want, _ := ref.Get(xrand.Hash64Seed(rank, 1)%10_000, nil)
		if !slices.Equal(buf, want) {
			t.Fatalf("op %d = %v, want %v", i, buf, want)
		}
	}
}

func TestScrambledZipfSpreadsHotKeys(t *testing.T) {
	// Hot records must not all share leaf pages: hashed key selection
	// spreads them across the key space.
	db := newDB(t, smallCfg())
	var buf []trace.Access
	leafPages := map[int64]int{}
	for i := 0; i < 20_000; i++ {
		buf = db.NextOp(buf[:0])
		leaf := buf[len(buf)-2] // last index access = leaf
		leafPages[int64(leaf.Page)]++
	}
	if len(leafPages) < 20 {
		t.Errorf("hot keys hit only %d distinct leaves; scrambling broken", len(leafPages))
	}
}

func TestStationaryDistribution(t *testing.T) {
	// YCSB keys stay equally hot: the top page set of the first half of a
	// run must strongly overlap the second half's (no shift).
	db := newDB(t, smallCfg())
	first := topRecordPages(db, 30_000, 30)
	second := topRecordPages(db, 30_000, 30)
	overlap := 0
	for p := range second {
		if first[p] {
			overlap++
		}
	}
	if overlap < 20 {
		t.Errorf("stationary workload hot-set overlap = %d/30, want high", overlap)
	}
}

func topRecordPages(db *DB, ops, k int) map[int64]bool {
	counts := map[int64]int{}
	var buf []trace.Access
	for i := 0; i < ops; i++ {
		buf = db.NextOp(buf[:0])
		counts[int64(buf[len(buf)-1].Page)]++
	}
	top := map[int64]bool{}
	for i := 0; i < k; i++ {
		var best int64
		bn := -1
		for p, n := range counts {
			if n > bn {
				best, bn = p, n
			}
		}
		if bn < 0 {
			break
		}
		top[best] = true
		delete(counts, best)
	}
	return top
}

func TestDefaultBuilds(t *testing.T) {
	cfg := Default(1)
	cfg.Records = 1 << 16 // shrink for test speed
	db := newDB(t, cfg)
	if height(db) < 2 {
		t.Error("default tree too shallow")
	}
	var buf []trace.Access
	buf = db.NextOp(buf[:0])
	if len(buf) < 3 {
		t.Error("op should touch at least root, leaf, record")
	}
}

func BenchmarkGet(b *testing.B) {
	db := newDB(b, smallCfg())
	var buf []trace.Access
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = db.Get(uint64(i)%10_000, buf[:0])
	}
}

func BenchmarkNextOp(b *testing.B) {
	db := newDB(b, smallCfg())
	var buf []trace.Access
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = db.NextOp(buf[:0])
	}
}
