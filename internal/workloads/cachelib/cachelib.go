// Package cachelib models Meta's CacheLib in-memory caching workloads
// (§5.3): a hash-indexed object heap driven by Zipf-distributed item
// popularity, with the two production traffic profiles the paper evaluates —
// content-delivery network (CDN) and social-graph — plus the dynamic
// popularity churn §2.2 reports (half of popular objects fall out of the hot
// set within ~10 minutes) and the single large distribution shift used by
// the adaptation experiments (Fig. 4, Table 3).
//
// The generator is an instrumented cache, not a trace file: each operation
// resolves the key through an index region and then touches the object's
// data pages, exactly the page-access pattern a real in-process cache
// generates.
package cachelib

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// indexEntryBytes is the per-object index footprint (hash bucket entry),
// matching CacheLib's compact index item overhead.
const indexEntryBytes = 16

// Config parameterizes a CacheLib workload instance.
type Config struct {
	// Name labels the workload in reports.
	Name string
	// Objects is the number of cached items.
	Objects int
	// ZipfS is the popularity skew exponent.
	ZipfS float64
	// MaxPages bounds object sizes in 4 KB pages. Sizes are drawn from a
	// truncated geometric distribution over [1, MaxPages], giving the
	// heavy-tailed size profiles CacheBench uses.
	MaxPages int
	// ReadFrac is the fraction of GET operations; the rest are SETs that
	// rewrite every page of the object.
	ReadFrac float64
	// ChurnEveryOps continuously rotates one popular rank into the cold
	// tail every N operations (production TTL churn). 0 disables.
	ChurnEveryOps int
	// ShiftAfterOps triggers the §2.3.2 bulk shift after this many ops.
	// 0 disables.
	ShiftAfterOps int64
	// ShiftFrac is the fraction of the popularity permutation rotated at
	// the bulk shift (the paper uses 2/3).
	ShiftFrac float64
	// Seed makes the instance deterministic.
	Seed uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Objects <= 0 {
		return fmt.Errorf("cachelib: Objects must be positive, got %d", c.Objects)
	}
	if c.ZipfS <= 0 {
		return fmt.Errorf("cachelib: ZipfS must be positive, got %v", c.ZipfS)
	}
	if c.MaxPages < 1 {
		return fmt.Errorf("cachelib: bad size range [1, %d]", c.MaxPages)
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 {
		return fmt.Errorf("cachelib: ReadFrac must be in [0,1], got %v", c.ReadFrac)
	}
	return nil
}

// CDN returns the content-delivery-network profile: fewer, larger objects
// with moderate skew and a read-dominant mix.
func CDN(seed uint64) Config {
	return Config{
		Name:          "cachelib-cdn",
		Objects:       30_000,
		ZipfS:         0.9,
		MaxPages:      24,
		ReadFrac:      0.95,
		ChurnEveryOps: 10_000,
		Seed:          seed,
	}
}

// SocialGraph returns the social-graph profile: many small objects with
// high skew — the workload with the largest hot set in Fig. 16.
func SocialGraph(seed uint64) Config {
	return Config{
		Name:          "cachelib-social",
		Objects:       180_000,
		ZipfS:         1.05,
		MaxPages:      3,
		ReadFrac:      0.9,
		ChurnEveryOps: 8_000,
		Seed:          seed,
	}
}

// Cache is the instrumented cache workload. It implements trace.Source.
type Cache struct {
	cfg       Config
	rng       *xrand.RNG
	zipf      *xrand.Zipf
	rankToObj []uint32 // popularity rank -> object id
	objBase   []uint32 // object id -> first data page
	objPages  []uint16 // object id -> size in pages
	indexPgs  int
	numPages  int
	ops       int64
	lastNow   int64
	shiftedAt int64
	shifted   bool
}

var _ trace.ShiftSource = (*Cache)(nil)

// New builds the cache layout: an index region followed by the object heap.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	c := &Cache{
		cfg:       cfg,
		rng:       rng,
		zipf:      xrand.NewZipf(rng, cfg.ZipfS, uint64(cfg.Objects)),
		rankToObj: make([]uint32, cfg.Objects),
		objBase:   make([]uint32, cfg.Objects),
		objPages:  make([]uint16, cfg.Objects),
		shiftedAt: -1,
	}
	for i := range c.rankToObj {
		c.rankToObj[i] = uint32(i)
	}
	shuffle32(rng, c.rankToObj)

	c.indexPgs = (cfg.Objects*indexEntryBytes + mem.RegularPageBytes - 1) / mem.RegularPageBytes
	next := uint32(c.indexPgs)
	for i := range c.objBase {
		size := 1
		if cfg.MaxPages > 1 {
			// Truncated geometric: most objects of one page, a heavy
			// tail up to MaxPages.
			for size < cfg.MaxPages && rng.Float64() < 0.55 {
				size++
			}
		}
		c.objBase[i] = next
		c.objPages[i] = uint16(size)
		next += uint32(size)
	}
	c.numPages = int(next)
	return c, nil
}

func shuffle32(rng *xrand.RNG, p []uint32) {
	for i := len(p) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Name implements trace.Source.
func (c *Cache) Name() string { return c.cfg.Name }

// NumPages implements trace.Source.
func (c *Cache) NumPages() int { return c.numPages }

// NextOp implements trace.Source: one GET or SET.
func (c *Cache) NextOp(dst []trace.Access) []trace.Access {
	c.ops++
	if c.cfg.ShiftAfterOps > 0 && !c.shifted && c.ops >= c.cfg.ShiftAfterOps {
		c.bulkShift()
	}
	if c.cfg.ChurnEveryOps > 0 && c.ops%int64(c.cfg.ChurnEveryOps) == 0 {
		c.churnOne()
	}

	rank := c.zipf.Next()
	obj := c.rankToObj[rank]

	// Index probe: the hash-bucket page holding this object's entry.
	entry := int64(xrand.Hash64Seed(uint64(obj), c.cfg.Seed)%uint64(c.cfg.Objects)) * indexEntryBytes
	idxPage := mem.PageID(entry / mem.RegularPageBytes)

	isRead := c.rng.Float64() < c.cfg.ReadFrac
	dst = append(dst, trace.Access{Page: idxPage, Write: !isRead})

	base := mem.PageID(c.objBase[obj])
	size := int(c.objPages[obj])
	if isRead {
		// GETs read a prefix of the object (range reads / partial hits):
		// always the first page, then a geometric tail.
		n := 1
		for n < size && c.rng.Float64() < 0.7 {
			n++
		}
		for i := 0; i < n; i++ {
			dst = append(dst, trace.Access{Page: base + mem.PageID(i)})
		}
	} else {
		// SETs rewrite the whole object.
		for i := 0; i < size; i++ {
			dst = append(dst, trace.Access{Page: base + mem.PageID(i), Write: true})
		}
	}
	return dst
}

// bulkShift rotates ShiftFrac of the popularity permutation: previously hot
// objects move to cold ranks and cold objects take their place.
func (c *Cache) bulkShift() {
	k := int(c.cfg.ShiftFrac * float64(c.cfg.Objects))
	if k < 1 {
		k = 1
	}
	if k >= c.cfg.Objects {
		k = c.cfg.Objects - 1
	}
	for i := 0; i < k; i++ {
		j := k + c.rng.Intn(c.cfg.Objects-k)
		c.rankToObj[i], c.rankToObj[j] = c.rankToObj[j], c.rankToObj[i]
	}
	c.shifted = true
	c.shiftedAt = c.lastNow
}

// churnOne rotates one popularity rank, modeling continuous TTL-driven
// churn: the victim rank is drawn from the popularity distribution itself,
// so popular objects lose popularity at a rate proportional to their
// popularity — Meta's "50% of popular objects are no longer popular after
// 10 minutes" (§2.2).
func (c *Cache) churnOne() {
	i := int(c.zipf.Next())
	j := c.rng.Intn(c.cfg.Objects)
	c.rankToObj[i], c.rankToObj[j] = c.rankToObj[j], c.rankToObj[i]
}

// NextBatch implements trace.BatchSource. The bulk shift timestamps itself
// with the clock of the last AdvanceTime before the shifting op, so that op
// must not be generated ahead of the simulator's tick processing: the batch
// ends right before it, making the shifting op the first of its own batch,
// by which point all earlier ticks have been delivered — exactly the
// single-op schedule. Churn is op-count-driven and needs no alignment.
func (c *Cache) NextBatch(dst []trace.Access, max int) []trace.Access {
	if c.cfg.ShiftAfterOps > 0 && !c.shifted {
		if before := c.cfg.ShiftAfterOps - 1 - c.ops; before > 0 && int64(max) > before {
			max = int(before)
		}
	}
	for i := 0; i < max; i++ {
		dst = c.NextOp(dst)
		dst[len(dst)-1].EndOp = true
	}
	return dst
}

// AdvanceTime implements trace.Source.
func (c *Cache) AdvanceTime(now int64) { c.lastNow = now }

// ShiftTime implements trace.ShiftSource; -1 until the bulk shift fires.
func (c *Cache) ShiftTime() int64 { return c.shiftedAt }

// ClockFree implements trace.ClockFree: churn and the bulk shift are
// op-count-driven, and the clock only timestamps the shift.
func (c *Cache) ClockFree() bool { return true }
