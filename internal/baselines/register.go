package baselines

import (
	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/tier"
	"repro/internal/tracker"
)

// init self-registers every baseline system evaluated in §5.2 with the
// first-touch allocation mode the paper's methodology prescribes for it:
// the kernel-style systems place new pages fast-first, the cache-style
// replacement policies (ARC, TwoQ, LRU) start with everything slow. The
// memtierd-lineage policies (Age, Heat) additionally declare the tracker
// they are designed against; "Name@tracker" qualifiers override it.
func init() {
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "Memtis", Doc: "sampling-based kernel tiering with EMA hotness (HPCA'23 baseline)",
		New: func(numPages, fastPages int, _ bool) (tier.Policy, mem.AllocMode, error) {
			return NewMemtis(DefaultMemtisConfig(numPages, fastPages)), mem.AllocFastFirst, nil
		},
	})
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "AutoNUMA", Doc: "Linux hint-fault promotion with MGLRU-style demotion",
		New: func(numPages, fastPages int, _ bool) (tier.Policy, mem.AllocMode, error) {
			return NewAutoNUMA(DefaultAutoNUMAConfig(numPages)), mem.AllocFastFirst, nil
		},
	})
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "TPP", Doc: "Meta's transparent page placement (fault-driven NUMA balancing)",
		New: func(numPages, fastPages int, _ bool) (tier.Policy, mem.AllocMode, error) {
			return NewTPP(numPages), mem.AllocFastFirst, nil
		},
	})
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "ARC", Doc: "adaptive replacement cache treating the fast tier as a cache",
		New: func(numPages, fastPages int, _ bool) (tier.Policy, mem.AllocMode, error) {
			return NewARC(numPages, fastPages), mem.AllocSlow, nil
		},
	})
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "TwoQ", Doc: "2Q replacement treating the fast tier as a cache",
		New: func(numPages, fastPages int, _ bool) (tier.Policy, mem.AllocMode, error) {
			return NewTwoQ(numPages, fastPages), mem.AllocSlow, nil
		},
	})
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "LRU", Doc: "strict least-recently-used replacement",
		New: func(numPages, fastPages int, _ bool) (tier.Policy, mem.AllocMode, error) {
			return NewLRU(numPages, fastPages), mem.AllocSlow, nil
		},
	})
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "Age-Idle", Doc: "memtierd-style age policy over idle-page bitmap scans",
		Tracker: tracker.KindIdlepage,
		New: func(numPages, _ int, _ bool) (tier.Policy, mem.AllocMode, error) {
			cfg := DefaultAgeConfig(numPages)
			cfg.Label = "Age-Idle"
			return NewAge(cfg), mem.AllocFastFirst, nil
		},
	})
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "Heat-Idle", Doc: "memtierd-style heat buckets over idle-page bitmap scans",
		Tracker: tracker.KindIdlepage,
		New: func(numPages, fastPages int, _ bool) (tier.Policy, mem.AllocMode, error) {
			cfg := DefaultHeatConfig(numPages, fastPages)
			cfg.Label = "Heat-Idle"
			return NewHeat(cfg), mem.AllocFastFirst, nil
		},
	})
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "Heat-Dirty", Doc: "memtierd-style heat buckets over soft-dirty write tracking",
		Tracker: tracker.KindSoftDirty,
		New: func(numPages, fastPages int, _ bool) (tier.Policy, mem.AllocMode, error) {
			cfg := DefaultHeatConfig(numPages, fastPages)
			cfg.Label = "Heat-Dirty"
			return NewHeat(cfg), mem.AllocFastFirst, nil
		},
	})
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "FirstTouch", Doc: "static placement: pages stay where first allocated",
		New: func(int, int, bool) (tier.Policy, mem.AllocMode, error) {
			return NewStatic("FirstTouch"), mem.AllocFastFirst, nil
		},
	})
	registry.Policies.MustRegister(registry.PolicyEntry{
		Name: "AllFast", Doc: "upper bound: every page in the fast tier",
		New: func(int, int, bool) (tier.Policy, mem.AllocMode, error) {
			return NewStatic("AllFast"), mem.AllocFast, nil
		},
	})
}
