package cachelib

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func smallCfg() Config {
	return Config{
		Name:     "test",
		Objects:  2000,
		ZipfS:    1.0,
		MaxPages: 4,
		ReadFrac: 0.9,
		Seed:     1,
	}
}

func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Objects = 0 },
		func(c *Config) { c.ZipfS = 0 },
		func(c *Config) { c.MaxPages = 0 },
		func(c *Config) { c.ReadFrac = 1.5 },
	}
	for i, mutate := range bad {
		c := smallCfg()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate(%+v) should fail", i, c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New should fail", i)
		}
	}
}

func TestLayoutDisjoint(t *testing.T) {
	c := newCache(t, smallCfg())
	if c.indexPgs <= 0 {
		t.Fatal("index region empty")
	}
	// Objects must occupy disjoint extents after the index region.
	seen := make([]bool, c.NumPages())
	for i, base := range c.objBase {
		size := int(c.objPages[i])
		if int(base) < c.indexPgs {
			t.Fatalf("object %d overlaps index region", i)
		}
		for p := 0; p < size; p++ {
			if seen[int(base)+p] {
				t.Fatalf("object %d overlaps another extent at page %d", i, int(base)+p)
			}
			seen[int(base)+p] = true
		}
	}
}

func TestOpShape(t *testing.T) {
	c := newCache(t, smallCfg())
	var buf []trace.Access
	for i := 0; i < 5000; i++ {
		buf = c.NextOp(buf[:0])
		if len(buf) < 2 {
			t.Fatalf("op %d has %d accesses, want ≥ 2 (index + data)", i, len(buf))
		}
		// First access is the index probe.
		if int(buf[0].Page) >= c.indexPgs {
			t.Fatalf("first access (page %d) outside index region (%d pages)",
				buf[0].Page, c.indexPgs)
		}
		for _, a := range buf {
			if int(a.Page) >= c.NumPages() {
				t.Fatalf("access outside page space: %d >= %d", a.Page, c.NumPages())
			}
		}
	}
	if c.ops != 5000 {
		t.Errorf("Ops = %d, want 5000", c.ops)
	}
}

func TestSetsRewriteWholeObject(t *testing.T) {
	cfg := smallCfg()
	cfg.ReadFrac = 0 // all SETs
	c := newCache(t, cfg)
	var buf []trace.Access
	for i := 0; i < 200; i++ {
		buf = c.NextOp(buf[:0])
		// index write + every object page written
		for _, a := range buf {
			if !a.Write {
				t.Fatalf("SET op contains a read access: %+v", buf)
			}
		}
	}
}

func TestSkewedPopularity(t *testing.T) {
	c := newCache(t, smallCfg())
	counts := map[mem.PageID]int{}
	var buf []trace.Access
	const ops = 50000
	for i := 0; i < ops; i++ {
		buf = c.NextOp(buf[:0])
		for _, a := range buf {
			counts[a.Page]++
		}
	}
	// Hot pages must exist: top page gets far more than uniform share.
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	uniform := ops * 3 / c.NumPages()
	if max < uniform*20 {
		t.Errorf("top page count %d < 20× uniform share %d: popularity not skewed", max, uniform)
	}
}

func TestBulkShiftRotatesHotSet(t *testing.T) {
	cfg := smallCfg()
	cfg.ShiftAfterOps = 30000
	cfg.ShiftFrac = 2.0 / 3.0
	cfg.ChurnEveryOps = 0
	c := newCache(t, cfg)
	hotBefore := hotObjects(c, 25000, 50)
	// Cross the shift boundary.
	var buf []trace.Access
	for i := 0; i < 10000; i++ {
		c.AdvanceTime(int64(i))
		buf = c.NextOp(buf[:0])
	}
	if c.ShiftTime() < 0 {
		t.Fatal("shift did not fire")
	}
	hotAfter := hotObjects(c, 25000, 50)
	overlap := 0
	for p := range hotAfter {
		if hotBefore[p] {
			overlap++
		}
	}
	if overlap > 33 {
		t.Errorf("hot-set overlap after 2/3 shift = %d/50, want ≤ 2/3", overlap)
	}
}

func hotObjects(c *Cache, ops, k int) map[mem.PageID]bool {
	counts := map[mem.PageID]int{}
	var buf []trace.Access
	for i := 0; i < ops; i++ {
		buf = c.NextOp(buf[:0])
		// Use data page of first data access as the object fingerprint.
		if len(buf) > 1 {
			counts[buf[1].Page]++
		}
	}
	top := map[mem.PageID]bool{}
	for i := 0; i < k; i++ {
		var best mem.PageID
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

func TestChurnKeepsRunning(t *testing.T) {
	cfg := smallCfg()
	cfg.ChurnEveryOps = 10
	c := newCache(t, cfg)
	var buf []trace.Access
	for i := 0; i < 1000; i++ {
		buf = c.NextOp(buf[:0])
	}
	// Churn must not corrupt the permutation: every object id still present.
	seen := make([]bool, cfg.Objects)
	for _, o := range c.rankToObj {
		if seen[o] {
			t.Fatal("rankToObj no longer a permutation")
		}
		seen[o] = true
	}
}

func TestProfilesConstruct(t *testing.T) {
	for _, cfg := range []Config{CDN(1), SocialGraph(1)} {
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if c.NumPages() < 10000 {
			t.Errorf("%s: suspiciously small footprint %d pages", cfg.Name, c.NumPages())
		}
		var buf []trace.Access
		for i := 0; i < 100; i++ {
			buf = c.NextOp(buf[:0])
		}
	}
	// Social graph must have more, smaller objects than CDN.
	if CDN(1).Objects >= SocialGraph(1).Objects {
		t.Error("social-graph should have more objects than CDN")
	}
	if CDN(1).MaxPages <= SocialGraph(1).MaxPages {
		t.Error("CDN objects should be larger than social-graph objects")
	}
}

func TestDeterminism(t *testing.T) {
	a, b := newCache(t, smallCfg()), newCache(t, smallCfg())
	var ba, bb []trace.Access
	for i := 0; i < 2000; i++ {
		ba = a.NextOp(ba[:0])
		bb = b.NextOp(bb[:0])
		if len(ba) != len(bb) {
			t.Fatal("same seed diverged in op size")
		}
		for j := range ba {
			if ba[j] != bb[j] {
				t.Fatal("same seed diverged in access stream")
			}
		}
	}
}
