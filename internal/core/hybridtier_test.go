package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/tier"
)

// mustNew is New for a configuration known to be valid.
func mustNew(cfg Config) *HybridTier {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// testSetup builds a small slow-allocated memory and an attached policy.
func testSetup(t *testing.T, mutate func(*Config)) (*HybridTier, *mem.Memory, *tier.NopEnv) {
	t.Helper()
	cfg := DefaultConfig(8)
	cfg.PromoBatch = 1 // immediate flush for deterministic tests
	cfg.FreqCoolSamples = 1 << 20
	cfg.MomCoolSamples = 1 << 20
	cfg.SecondChanceNs = 1000
	if mutate != nil {
		mutate(&cfg)
	}
	h := mustNew(cfg)
	m, err := mem.New(mem.Config{
		NumPages: 256, FastPages: cfg.FastPages,
		PageBytes: mem.RegularPageBytes, Alloc: mem.AllocSlow,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &tier.NopEnv{M: m}
	h.Attach(env)
	return h, m, env
}

func sampleN(h *HybridTier, p mem.PageID, t mem.Tier, n int) {
	for i := 0; i < n; i++ {
		h.OnSamples([]tier.Sample{{Page: p, Tier: t}})
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(100).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.FastPages = 0 },
		func(c *Config) { c.CounterBits = 7 },
		func(c *Config) { c.FreqCoolSamples = 0 },
		func(c *Config) { c.PromoBatch = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(100)
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New should fail", i)
		}
	}
}

func TestPromotionByFrequency(t *testing.T) {
	h, m, _ := testSetup(t, func(c *Config) { c.DisableMomentum = true })
	m.Touch(7)
	// Below threshold: no promotion yet.
	sampleN(h, 7, mem.Slow, 1)
	if m.TierOf(7) != mem.Slow {
		t.Fatal("promoted before reaching the frequency threshold")
	}
	// The second sample reaches minFreqThreshold.
	sampleN(h, 7, mem.Slow, 1)
	if m.TierOf(7) != mem.Fast {
		t.Fatal("page with frequency ≥ threshold must be promoted")
	}
	if n := m.Stats().Promotions; n != 1 {
		t.Errorf("%d promotions, want 1", n)
	}
}

func TestPromotionByMomentum(t *testing.T) {
	// One sample stays under the frequency threshold (2) but reaches a
	// momentum threshold of 1.
	h, m, _ := testSetup(t, func(c *Config) { c.MomentumThreshold = 1 })
	m.Touch(9)
	sampleN(h, 9, mem.Slow, 1)
	if m.TierOf(9) != mem.Fast {
		t.Fatal("page with momentum ≥ threshold must be promoted (Table 1)")
	}

	// Same scenario with momentum disabled: not promoted.
	h2, m2, _ := testSetup(t, func(c *Config) {
		c.MomentumThreshold = 1
		c.DisableMomentum = true
	})
	m2.Touch(9)
	sampleN(h2, 9, mem.Slow, 1)
	if m2.TierOf(9) != mem.Slow {
		t.Fatal("onlyFreq variant must not promote on momentum")
	}
}

func TestFastPageSamplesDoNotQueue(t *testing.T) {
	h, m, _ := testSetup(t, func(c *Config) { c.PromoBatch = 64 })
	m.Touch(3)
	m.Promote(3)
	sampleN(h, 3, mem.Fast, 10)
	// Already fast: no promotions issued by the policy.
	if len(h.promoQueue) != 0 {
		t.Error("fast-tier samples must not trigger promotions")
	}
}

func TestBatchedPromotion(t *testing.T) {
	h, m, _ := testSetup(t, func(c *Config) {
		c.PromoBatch = 8
	})
	m.Touch(5)
	// Two samples qualify the page, but the batch has not filled.
	sampleN(h, 5, mem.Slow, 2)
	if m.TierOf(5) != mem.Slow {
		t.Fatal("promotion should wait for the batch to fill (§4.3)")
	}
	// Fill the batch with samples of another page.
	m.Touch(200)
	sampleN(h, 200, mem.Slow, 6)
	if m.TierOf(5) != mem.Fast {
		t.Fatal("batch flush must promote the queued page")
	}
}

func TestWatermarkDemotion(t *testing.T) {
	h, m, env := testSetup(t, func(c *Config) { c.FastPages = 50 })
	// Fill the 50-page fast tier with cold pages (no samples → freq 0).
	for p := mem.PageID(0); p < 50; p++ {
		m.Touch(p)
		m.Promote(p)
	}
	if m.FastFree() != 0 {
		t.Fatal("setup: fast tier should be full")
	}
	env.Clock = 10_000_000 // past the scan rate limiter
	h.Tick()
	// Free space must reach the demote watermark (0.08 × 50 = 4 pages).
	if m.FastFree() < 4 {
		t.Errorf("FastFree after demotion = %d, want ≥ 4", m.FastFree())
	}
	if m.Stats().Demotions == 0 {
		t.Error("demotions not counted")
	}
}

func TestSecondChance(t *testing.T) {
	h, m, env := testSetup(t, func(c *Config) {
		c.FastPages = 50
		c.SecondChanceNs = 1000
	})
	// Page 1 is hot (freq ≥ threshold) and resident fast; fill the rest of
	// the tier with cold pages.
	m.Touch(1)
	sampleN(h, 1, mem.Slow, 4) // freq 4 ≥ 2 → promoted
	if m.TierOf(1) != mem.Fast {
		t.Fatal("setup: page 1 should be fast")
	}
	for p := mem.PageID(2); p <= 50; p++ {
		m.Touch(p)
		m.Promote(p)
	}
	// Momentum must be low for the second-chance path; cool it away.
	for i := 0; i < 4; i++ {
		h.mom.Cool()
	}

	env.Clock = 10_000_000 // past the scan rate limiter
	h.Tick()               // demotion scan: cold pages demoted, page 1 marked
	if m.TierOf(1) != mem.Fast {
		t.Fatal("hot page must get a second chance, not immediate demotion")
	}
	if len(h.marked) == 0 {
		t.Fatal("page 1 should be marked for second chance")
	}

	// Revisit before the delay: nothing happens.
	env.Clock = 10_000_500
	h.revisitMarked()
	if m.TierOf(1) != mem.Fast {
		t.Fatal("revisit before the delay must not demote")
	}

	// After the delay with no further accesses: demoted.
	env.Clock = 10_002_000
	demoted := m.Stats().Demotions
	h.revisitMarked()
	if m.TierOf(1) != mem.Slow {
		t.Error("unaccessed marked page must be demoted at revisit (§4.3)")
	}
	if m.Stats().Demotions != demoted+1 || len(h.marked) != 0 {
		t.Error("second-chance demotion not counted")
	}
}

func TestSecondChanceSurvivesReaccess(t *testing.T) {
	h, m, env := testSetup(t, func(c *Config) { c.SecondChanceNs = 1000 })
	m.Touch(1)
	sampleN(h, 1, mem.Slow, 3)
	h.marked[1] = secondChance{markedAt: 100, freq: h.freq.Get(1)}
	// Re-access the page after marking: frequency estimate grows.
	sampleN(h, 1, mem.Fast, 2)
	env.Clock = 5_000
	h.revisitMarked()
	if m.TierOf(1) != mem.Fast {
		t.Error("re-accessed marked page must survive the revisit")
	}
	if m.Stats().Demotions != 0 || len(h.marked) != 0 {
		t.Error("second-chance survival not counted")
	}
}

func TestCoolingRetunesThreshold(t *testing.T) {
	h, m, _ := testSetup(t, func(c *Config) {
		c.FreqCoolSamples = 100
		c.FastPages = 2 // tiny fast tier → threshold must rise
	})
	// Make many pages hot so the hot set exceeds the fast tier.
	for p := mem.PageID(0); p < 50; p++ {
		m.Touch(p)
	}
	for round := 0; round < 4; round++ {
		for p := mem.PageID(0); p < 50; p++ {
			h.OnSamples([]tier.Sample{{Page: p, Tier: mem.Slow}})
		}
	}
	if h.samplesSinceFreqCool >= 100 {
		t.Fatal("cooling never fired")
	}
	if h.freqThresh <= 2 {
		t.Errorf("threshold = %d; with 50 hot pages and 2 fast pages it must rise", h.freqThresh)
	}
}

func TestCoolingHalvesEstimates(t *testing.T) {
	h, m, _ := testSetup(t, func(c *Config) { c.FreqCoolSamples = 1 << 20 })
	m.Touch(11)
	sampleN(h, 11, mem.Slow, 8)
	before := h.freq.Get(11)
	h.coolFrequency()
	after := h.freq.Get(11)
	if after != before/2 {
		t.Errorf("cooling: estimate %d → %d, want halved", before, after)
	}
}

func TestMetadataScalesWithFastTier(t *testing.T) {
	small := mustNew(DefaultConfig(1000))
	large := mustNew(DefaultConfig(8000))
	// The frequency CBF scales linearly with fast pages; the momentum CBF
	// has a constant active-window floor, so the total grows ≥ 4× for an
	// 8× larger fast tier.
	if large.MetadataBytes() < 4*small.MetadataBytes() {
		t.Errorf("metadata should scale with fast pages: %d vs %d",
			small.MetadataBytes(), large.MetadataBytes())
	}
	// The momentum CBF must be ~128× smaller than the frequency CBF.
	h := mustNew(DefaultConfig(100_000))
	if h.mom.SizeBytes()*64 > h.freq.SizeBytes() {
		t.Errorf("momentum CBF too large: %d vs freq %d", h.mom.SizeBytes(), h.freq.SizeBytes())
	}
}

func TestNames(t *testing.T) {
	if mustNew(DefaultConfig(10)).Name() != "HybridTier" {
		t.Error("default name wrong")
	}
	c := DefaultConfig(10)
	c.DisableMomentum = true
	if mustNew(c).Name() != "HybridTier-onlyFreq" {
		t.Error("onlyFreq name wrong")
	}
	c = DefaultConfig(10)
	c.Blocked = false
	if mustNew(c).Name() != "HybridTier-CBF" {
		t.Error("unblocked name wrong")
	}
}

func TestMetaTouchesEmitted(t *testing.T) {
	h, m, env := testSetup(t, nil)
	m.Touch(4)
	sampleN(h, 4, mem.Slow, 1)
	// Blocked CBFs: one line for frequency + one for momentum.
	if len(env.Touches) != 2 {
		t.Fatalf("got %d metadata touches per sample, want 2 (blocked CBFs)", len(env.Touches))
	}
	// The momentum touch must land in the momentum region.
	if env.Touches[1] < h.momMetaBase {
		t.Error("momentum touch not offset into the momentum region")
	}
}

func TestPromotionFullTierTriggersDemotion(t *testing.T) {
	h, m, env := testSetup(t, func(c *Config) { c.FastPages = 50 })
	// Fill fast with cold pages.
	for p := mem.PageID(100); p < 150; p++ {
		m.Touch(p)
		m.Promote(p)
	}
	env.Clock = 10_000_000 // past the scan rate limiter
	// A hot page arrives: promotion must evict cold pages and succeed.
	m.Touch(1)
	sampleN(h, 1, mem.Slow, 3)
	if m.TierOf(1) != mem.Fast {
		t.Error("promotion into a full tier must demote cold pages first")
	}
}
