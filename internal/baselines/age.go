package baselines

import (
	"repro/internal/mem"
	"repro/internal/tier"
)

// AgeConfig parameterizes the Age policy, a port of memtierd's age-based
// placement (cri-resource-manager's policy "age"): pages recently seen by
// the tracker belong in the fast tier, pages unseen for longer than an
// idle threshold are demoted. It is the natural partner of the idlepage
// tracker — one scan sample per touched page per window is exactly the
// "was it active lately" bit the policy consumes — but runs against any
// tracker.
type AgeConfig struct {
	// NumPages is the total page space (8 B of last-seen metadata each).
	NumPages int
	// IdleNs demotes a fast page once the tracker has not reported it for
	// this long. memtierd's IdleDurationGuess defaults to a few scan
	// periods; the default here is likewise a small multiple of the
	// tracker's 20 ms scan — short enough that a standard 1M-op run
	// (~90 virtual ms) ages out its cold allocations.
	IdleNs int64
	// Label overrides the policy's display name ("Age" when empty), so a
	// registration bound to a specific tracker can report that binding in
	// results ("Age-Idle").
	Label string
}

// DefaultAgeConfig returns the memtierd-proportioned setup.
func DefaultAgeConfig(numPages int) AgeConfig {
	return AgeConfig{
		NumPages: numPages,
		IdleNs:   50_000_000, // 2.5 idlepage scan periods
	}
}

// Age promotes pages the tracker reports as active and demotes pages it
// has stopped reporting. Unlike the frequency policies it keeps no
// counters — one timestamp per page — so a page is either fresh or idle,
// the same binary signal memtierd extracts from idle-page bitmaps.
type Age struct {
	cfg      AgeConfig
	env      tier.Env
	lastSeen []int64 // virtual ns of the page's last tracker report
	reclaim  tier.Reclaimer
}

var _ tier.Policy = (*Age)(nil)

// NewAge constructs the policy.
func NewAge(cfg AgeConfig) *Age {
	return &Age{cfg: cfg, lastSeen: make([]int64, cfg.NumPages)}
}

// Name implements tier.Policy.
func (a *Age) Name() string {
	if a.cfg.Label != "" {
		return a.cfg.Label
	}
	return "Age"
}

// Attach implements tier.Policy.
func (a *Age) Attach(env tier.Env) { a.env = env }

// MetadataBytes implements tier.Policy: one 8 B timestamp per page.
func (a *Age) MetadataBytes() int64 { return int64(a.cfg.NumPages) * 8 }

// OnSamples implements tier.Policy: refresh the page's age and promote
// anything the tracker saw on the slow tier, evicting idle pages when the
// fast tier has no room.
func (a *Age) OnSamples(batch []tier.Sample) {
	for _, s := range batch {
		p := s.Page
		a.env.TouchMeta(int64(p) * 8)
		a.lastSeen[p] = s.Time
		if s.Tier == mem.Slow {
			tier.PromoteOrReclaim(a.env, p, func() { a.sweepIdle(s.Time) })
		}
	}
}

// Tick implements tier.Policy: run the idle sweep when free fast memory
// dips under the watermark, keeping headroom for the next scan's
// promotions.
func (a *Age) Tick() {
	mm := a.env.Mem()
	if float64(mm.FastFree()) < promoWatermark*float64(mm.FastCap()) {
		a.sweepIdle(a.env.Now())
	}
}

// sweepIdle walks the fast tier from the demotion cursor, demoting pages
// whose last tracker report is older than IdleNs, until a watermark of
// free pages exists. Like the other kernel-style baselines the sweep is
// rate-limited and charged to the tiering thread.
func (a *Age) sweepIdle(now int64) {
	if !a.reclaim.Due(now) {
		return
	}
	target := int(promoWatermark*float64(a.env.Mem().FastCap())) + 1
	a.reclaim.Walk(a.env, target, 25, func(p mem.PageID) bool {
		return now-a.lastSeen[p] > a.cfg.IdleNs
	})
}

// RecencyFree implements tier.RecencyFree: Age keeps its own timestamps
// from the sample stream and never consults Env.LastAccess.
func (a *Age) RecencyFree() {}
