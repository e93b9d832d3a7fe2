package baselines

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/tier"
)

// --- Age ---

func TestAgePromotesSampledSlowPages(t *testing.T) {
	m, env := newEnv(128, 8)
	a := NewAge(DefaultAgeConfig(128))
	a.Attach(env)
	m.Touch(5)
	a.OnSamples([]tier.Sample{{Page: 5, Tier: mem.Slow, Time: 1000}})
	if m.TierOf(5) != mem.Fast {
		t.Fatal("sampled slow page was not promoted")
	}
	st := m.Stats()
	if len(env.Touches) != 1 || st.Promotions != 1 || st.Demotions != 0 {
		t.Fatalf("%d samples, stats = %+v, want 1 sample / 1 promotion", len(env.Touches), st)
	}
	// A sample already on the fast tier refreshes its age but is not
	// re-promoted.
	a.OnSamples([]tier.Sample{{Page: 5, Tier: mem.Fast, Time: 2000}})
	if st := m.Stats(); st.Promotions != 1 || a.lastSeen[5] != 2000 {
		t.Fatalf("fast-tier sample changed promotions or kept its age: %+v, last seen %d", st, a.lastSeen[5])
	}
}

func TestAgeEvictsIdlePagesToMakeRoom(t *testing.T) {
	m, env := newEnv(128, 4)
	cfg := DefaultAgeConfig(128)
	cfg.IdleNs = 10_000_000
	a := NewAge(cfg)
	a.Attach(env)
	for p := mem.PageID(0); p < 4; p++ {
		m.Touch(p)
		a.OnSamples([]tier.Sample{{Page: p, Tier: mem.Slow, Time: 2_000_000}})
	}
	if m.FastFree() != 0 {
		t.Fatalf("fast tier not full: %d free", m.FastFree())
	}
	// A new hot page arrives long after the residents went idle: the
	// failed promotion must trigger an idle sweep and then succeed.
	m.Touch(10)
	a.OnSamples([]tier.Sample{{Page: 10, Tier: mem.Slow, Time: 50_000_000}})
	if m.TierOf(10) != mem.Fast {
		t.Fatal("hot page not promoted after idle sweep")
	}
	// One sweep, which frees the one slot it needs at its first page.
	st := m.Stats()
	if st.Promotions != 5 || st.Demotions == 0 || env.Charged != 25 {
		t.Fatalf("stats = %+v, charged %v ns, want 5 promotions, >0 demotions, 1 sweep of 1 page", st, env.Charged)
	}
	slow := 0
	for p := mem.PageID(0); p < 4; p++ {
		if m.TierOf(p) == mem.Slow {
			slow++
		}
	}
	if int(st.Demotions) != slow {
		t.Fatalf("Demotions = %d but %d resident pages are slow", st.Demotions, slow)
	}
}

func TestAgeTickSweepSkipsFreshPages(t *testing.T) {
	m, env := newEnv(128, 4)
	a := NewAge(DefaultAgeConfig(128)) // IdleNs 50 ms
	a.Attach(env)
	for p := mem.PageID(0); p < 4; p++ {
		m.Touch(p)
		a.OnSamples([]tier.Sample{{Page: p, Tier: mem.Slow, Time: 2_000_000}})
	}
	// Pages 0..2 stay fresh; page 3's last report is 58 ms stale.
	a.OnSamples([]tier.Sample{
		{Page: 0, Tier: mem.Fast, Time: 59_000_000},
		{Page: 1, Tier: mem.Fast, Time: 59_000_000},
		{Page: 2, Tier: mem.Fast, Time: 59_000_000},
	})
	env.Clock = 60_000_000
	a.Tick() // fast tier full => under watermark => sweep
	if m.TierOf(3) != mem.Slow {
		t.Fatal("idle page 3 survived the watermark sweep")
	}
	for p := mem.PageID(0); p < 3; p++ {
		if m.TierOf(p) != mem.Fast {
			t.Fatalf("fresh page %d was demoted", p)
		}
	}
	if st := m.Stats(); st.Demotions != 1 {
		t.Fatalf("stats = %+v, want exactly 1 demotion", st)
	}
	if env.Charged != 4*25 {
		t.Fatalf("charged %v ns, want 1 sweep over the 4 fast pages", env.Charged)
	}
}

func TestAgeSweepRateLimited(t *testing.T) {
	m, env := newEnv(64, 2)
	cfg := DefaultAgeConfig(64)
	cfg.IdleNs = 1
	a := NewAge(cfg)
	a.Attach(env)
	for p := mem.PageID(0); p < 2; p++ {
		m.Touch(p)
		a.OnSamples([]tier.Sample{{Page: p, Tier: mem.Slow, Time: 0}})
	}
	// Promotion pressure well inside the rate-limit window: the sweep
	// must not run, so the promotion stays failed.
	m.Touch(9)
	a.OnSamples([]tier.Sample{{Page: 9, Tier: mem.Slow, Time: tier.ReclaimIntervalNs - 1}})
	if env.Charged != 0 {
		t.Fatalf("sweep ran inside the rate-limit window: charged %v ns", env.Charged)
	}
	if m.TierOf(9) != mem.Slow {
		t.Fatal("page promoted without room")
	}
}

func TestAgeAccessors(t *testing.T) {
	a := NewAge(DefaultAgeConfig(128))
	if a.Name() != "Age" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.MetadataBytes() != 128*8 {
		t.Fatalf("MetadataBytes = %d, want 8 B/page", a.MetadataBytes())
	}
	cfg := DefaultAgeConfig(128)
	cfg.Label = "Age-Idle"
	if got := NewAge(cfg).Name(); got != "Age-Idle" {
		t.Fatalf("labelled Name = %q", got)
	}
	a.RecencyFree() // must be a no-op, not a panic
}

// --- Heat ---

func TestHeatPromotesAtThreshold(t *testing.T) {
	m, env := newEnv(128, 8)
	h := NewHeat(DefaultHeatConfig(128, 8))
	h.Attach(env)
	if h.thresh != 2 {
		t.Fatalf("initial threshold = %d, want 2", h.thresh)
	}
	m.Touch(5)
	h.OnSamples(samples(5))
	if m.TierOf(5) != mem.Slow {
		t.Fatal("promoted below threshold")
	}
	h.OnSamples(samples(5))
	if m.TierOf(5) != mem.Fast {
		t.Fatal("not promoted at threshold")
	}
	if st := m.Stats(); len(env.Touches) != 2 || st.Promotions != 1 {
		t.Fatalf("%d samples, stats = %+v, want 2 samples / 1 promotion", len(env.Touches), st)
	}
}

func TestHeatCoolsAndEvictsColdPages(t *testing.T) {
	m, env := newEnv(128, 4)
	h := NewHeat(DefaultHeatConfig(128, 4))
	h.Attach(env)
	for p := mem.PageID(0); p < 4; p++ {
		m.Touch(p)
		h.OnSamples(samples(p, p)) // heat to threshold => promoted
	}
	if m.FastFree() != 0 {
		t.Fatalf("fast tier not full: %d free", m.FastFree())
	}
	// Cool with the clock pinned at 0: the per-tick watermark demotion is
	// rate-limited away, so ticks only halve heat chunk by chunk. Two
	// full cooling cycles take every resident from heat 2 to 0.
	for i := 0; i < 2*(heatCoolTicks+2); i++ {
		h.Tick()
	}
	for p := mem.PageID(0); p < 4; p++ {
		if h.heat[p] != 0 {
			t.Fatalf("cooling cycles left resident %d at heat %d", p, h.heat[p])
		}
	}
	// A newly hot page now displaces a cooled resident.
	env.Clock = 2_000_000
	m.Touch(10)
	h.OnSamples(samples(10, 10))
	if m.TierOf(10) != mem.Fast {
		t.Fatal("hot page not promoted after cold eviction")
	}
	if st := m.Stats(); st.Demotions == 0 {
		t.Fatalf("no resident was demoted: %+v", st)
	}
}

func TestHeatRetuneRaisesThresholdWhenHotSetOverflows(t *testing.T) {
	m, env := newEnv(128, 2)
	h := NewHeat(DefaultHeatConfig(128, 2))
	h.Attach(env)
	// Heat 8 pages far past the fast tier's 2-page budget.
	for round := 0; round < 4; round++ {
		for p := mem.PageID(0); p < 8; p++ {
			m.Touch(p)
			h.OnSamples(samples(p))
		}
	}
	h.Tick()
	if h.thresh <= 2 {
		t.Fatalf("threshold = %d after 8 hot pages vs 2 fast slots, want > 2", h.thresh)
	}
}

func TestHeatAccessors(t *testing.T) {
	h := NewHeat(DefaultHeatConfig(128, 8))
	if h.Name() != "Heat" {
		t.Fatalf("Name = %q", h.Name())
	}
	if h.MetadataBytes() != 128 {
		t.Fatalf("MetadataBytes = %d, want 1 B/page", h.MetadataBytes())
	}
	cfg := DefaultHeatConfig(128, 8)
	cfg.Label = "Heat-Dirty"
	if got := NewHeat(cfg).Name(); got != "Heat-Dirty" {
		t.Fatalf("labelled Name = %q", got)
	}
	h.RecencyFree() // must be a no-op, not a panic
}
