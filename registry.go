package hybridtier

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/trace"

	// Self-registration: importing the facade guarantees every built-in
	// policy and workload is in the registries.
	_ "repro/internal/baselines"
	_ "repro/internal/core"
	_ "repro/internal/workloads/cachelib"
	_ "repro/internal/workloads/gap"
	_ "repro/internal/workloads/silo"
	_ "repro/internal/workloads/speccpu"
	_ "repro/internal/workloads/xgboost"
)

// PolicyRegistry maps policy names to constructors
// (registry.PolicyRegistry re-exported).
type PolicyRegistry = registry.PolicyRegistry

// WorkloadRegistry maps workload names to constructors
// (registry.WorkloadRegistry re-exported).
type WorkloadRegistry = registry.WorkloadRegistry

// WorkloadParams sizes a registry-constructed workload instance.
type WorkloadParams = registry.WorkloadParams

// DefaultPolicies returns the process-wide policy registry. The built-in
// systems self-register into it; callers in this module may Register
// additional registry.PolicyEntry values and resolve them through
// WithPolicy and Sweep like any built-in.
func DefaultPolicies() *PolicyRegistry { return registry.Policies }

// DefaultWorkloads returns the process-wide workload registry. The paper's
// twelve workloads plus the synthetic "zipf" and "shifting-zipf" sources
// self-register into it.
func DefaultWorkloads() *WorkloadRegistry { return registry.Workloads }

// ValidateWorkload reports whether name would resolve through the
// workload registry: a registered generator, a trace:<path> replay, a
// corpus:<hash> replay (shape-checked only; the store is consulted at
// build time), or a composition spec (docs/COMPOSITION.md) whose
// referenced generators all exist. It parses and checks without constructing anything, so CLIs can
// reject a bad -workload before any simulation starts.
func ValidateWorkload(name string) error { return registry.Workloads.Validate(name) }

// WorkloadSpecSyntax returns one help line per composition scheme of the
// workload grammar ("mix:", "phases:", ...), for CLI listings.
func WorkloadSpecSyntax() []string { return registry.SpecSyntax() }

// init self-registers the synthetic sources, which live in the facade
// because internal/trace must stay importable by the registry package.
func init() {
	registry.Workloads.MustRegister(registry.WorkloadEntry{
		Name: "zipf", Doc: "synthetic single-page-per-op Zipf popularity",
		New: func(p registry.WorkloadParams) (trace.Source, error) {
			n, s := p.Pages, p.Skew
			if n <= 0 {
				n = 1 << 16
			}
			if s <= 0 {
				s = 1.0
			}
			return trace.NewZipfSource(fmt.Sprintf("zipf-%d-%.2f", n, s), n, s, 0, p.Seed), nil
		},
	})
	registry.Workloads.MustRegister(registry.WorkloadEntry{
		Name: "shifting-zipf", Doc: "Zipf with a 2/3 hot-set rotation at 1/3 of 1M ops",
		New: func(p registry.WorkloadParams) (trace.Source, error) {
			n, s := p.Pages, p.Skew
			if n <= 0 {
				n = 1 << 16
			}
			if s <= 0 {
				s = 1.0
			}
			return trace.NewShiftingZipfSource(fmt.Sprintf("shifting-zipf-%d-%.2f", n, s),
				n, s, p.Seed, 333_333, 2.0/3.0), nil
		},
	})
}
