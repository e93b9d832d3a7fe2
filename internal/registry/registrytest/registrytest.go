// Package registrytest lets a test resolve extra workloads through the
// process-wide registry without leaving them there: listings and "known
// workloads" error texts that other tests pin stay as they were.
package registrytest

import (
	"testing"

	"repro/internal/registry"
)

// WithWorkloads swaps registry.Workloads, until the test ends, for a copy
// that also holds entries; an entry named like a registered workload takes
// its place (a test wrapping a built-in's constructor). Not for parallel
// tests: the registry is a process-wide variable.
func WithWorkloads(t testing.TB, entries ...registry.WorkloadEntry) {
	t.Helper()
	old := registry.Workloads
	r := registry.NewWorkloadRegistry()
	for _, e := range entries {
		r.MustRegister(e)
	}
	for _, name := range old.Names() {
		if _, replaced := r.Lookup(name); !replaced {
			e, _ := old.Lookup(name)
			r.MustRegister(e)
		}
	}
	registry.Workloads = r
	t.Cleanup(func() { registry.Workloads = old })
}
