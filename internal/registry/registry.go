// Package registry holds the process-wide policy and workload registries
// the public facade exposes. It is a leaf package so that policy packages
// (internal/core, internal/baselines) and workload packages can register
// their named constructors from init functions without importing the
// facade, and the facade, the experiment harness, and the CLIs can all
// resolve names through one authoritative table instead of hand-maintained
// switch statements.
//
// Besides registered names, workload resolution understands three extra
// forms. "trace:<path>" opens a recorded trace file (internal/tracefile)
// as the workload, so captured or externally produced access streams run
// everywhere a workload name is accepted — experiments, sweeps, CLIs.
// "corpus:<sha256>" opens a trace out of a content-addressed corpus
// (internal/corpus) through a process-installed resolver, naming the
// trace's bytes rather than a mutable path. And the composition grammar (grammar.go, docs/COMPOSITION.md) builds
// multi-tenant scenarios out of the registered generators with the
// combinators in internal/trace: "mix:0.7*cdn,0.3*silo" interleaves two
// tenants on disjoint page ranges, "phases:cdn@1000000,silo" switches
// generators after a fixed op count, and repeat:/offset:/scale: loop and
// transform address spaces. Specs nest with parentheses and resolve
// everywhere a plain name does.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/errfs"
	"repro/internal/mem"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

// PolicyFactory builds one policy instance for a page space of numPages
// with a fast tier of fastPages, returning the policy and the first-touch
// allocation mode the paper's methodology (§5.2) prescribes for it. huge
// selects 2 MB-granularity configurations (§4.4).
type PolicyFactory func(numPages, fastPages int, huge bool) (tier.Policy, mem.AllocMode, error)

// PolicyEntry is one registered tiering system.
type PolicyEntry struct {
	// Name is the registry key ("HybridTier", "Memtis", ...).
	Name string
	// Doc is a one-line description shown by CLI listings.
	Doc string
	// New constructs an instance.
	New PolicyFactory
	// Tracker names the access tracker (internal/tracker kind) the policy
	// is designed against; empty means the default PEBS sampler. Callers
	// may override it per cell with a "Name@tracker" qualifier or a
	// spec-level tracker choice.
	Tracker string
}

// PolicyQualifierSep separates a policy name from a tracker qualifier in
// the "Name@tracker" spelling ("LRU@idlepage") accepted by sweep specs
// and CLIs.
const PolicyQualifierSep = "@"

// SplitPolicyQualifier splits "LRU@idlepage" into ("LRU", "idlepage",
// true); bare names return (name, "", false). Only the first separator
// binds. Validating the tracker name is the caller's job — the registry
// stays a leaf package and does not import internal/tracker.
func SplitPolicyQualifier(name string) (policy, tracker string, qualified bool) {
	if i := strings.Index(name, PolicyQualifierSep); i >= 0 {
		return name[:i], name[i+1:], true
	}
	return name, "", false
}

// PolicyRegistry maps policy names to constructors. The zero value is not
// usable; call NewPolicyRegistry. All methods are safe for concurrent use.
type PolicyRegistry struct {
	mu      sync.RWMutex
	entries map[string]PolicyEntry
}

// NewPolicyRegistry returns an empty registry.
func NewPolicyRegistry() *PolicyRegistry {
	return &PolicyRegistry{entries: map[string]PolicyEntry{}}
}

// Register adds an entry. Empty names and duplicates are errors.
func (r *PolicyRegistry) Register(e PolicyEntry) error {
	if e.Name == "" || e.New == nil {
		return fmt.Errorf("registry: policy entry needs a name and a constructor")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("registry: policy %q registered twice", e.Name)
	}
	r.entries[e.Name] = e
	return nil
}

// MustRegister is Register, panicking on error; for init-time use.
func (r *PolicyRegistry) MustRegister(e PolicyEntry) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Lookup finds an entry by name.
func (r *PolicyRegistry) Lookup(name string) (PolicyEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// New constructs the named policy, or an error naming the known policies
// when the name is not registered.
func (r *PolicyRegistry) New(name string, numPages, fastPages int, huge bool) (tier.Policy, mem.AllocMode, error) {
	e, ok := r.Lookup(name)
	if !ok {
		return nil, 0, fmt.Errorf("registry: unknown policy %q (known: %s)",
			name, strings.Join(r.Names(), ", "))
	}
	return e.New(numPages, fastPages, huge)
}

// Names returns every registered policy name, sorted.
func (r *PolicyRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WorkloadParams sizes a workload instance. Factories read the fields that
// apply to them and fall back to their package defaults on zero values, so
// a zero WorkloadParams (plus a seed) always produces a working instance.
type WorkloadParams struct {
	// Seed makes the instance deterministic.
	Seed uint64

	// Pages and Skew size the synthetic Zipf sources.
	Pages int
	Skew  float64

	// CacheObjects is the CacheLib base object count ("social" scales it).
	CacheObjects int

	// GraphScale and GraphDegree size the GAP input graphs (2^scale
	// vertices, degree*2^scale edges).
	GraphScale  int
	GraphDegree int

	// Cells is the SPEC CPU base cell count ("roms" scales it).
	Cells int

	// Records is the Silo B+tree record count.
	Records int

	// Rows and Features size the XGBoost training matrix.
	Rows     int
	Features int
}

// WorkloadFactory builds one workload instance from params.
type WorkloadFactory func(p WorkloadParams) (trace.Source, error)

// WorkloadEntry is one registered workload generator.
type WorkloadEntry struct {
	// Name is the registry key ("cdn", "bfs-kron", ...).
	Name string
	// Doc is a one-line description shown by CLI listings.
	Doc string
	// New constructs an instance.
	New WorkloadFactory
}

// WorkloadRegistry maps workload names to constructors. The zero value is
// not usable; call NewWorkloadRegistry. All methods are safe for
// concurrent use.
type WorkloadRegistry struct {
	mu      sync.RWMutex
	entries map[string]WorkloadEntry
}

// NewWorkloadRegistry returns an empty registry.
func NewWorkloadRegistry() *WorkloadRegistry {
	return &WorkloadRegistry{entries: map[string]WorkloadEntry{}}
}

// Register adds an entry. Empty names and duplicates are errors.
func (r *WorkloadRegistry) Register(e WorkloadEntry) error {
	if e.Name == "" || e.New == nil {
		return fmt.Errorf("registry: workload entry needs a name and a constructor")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("registry: workload %q registered twice", e.Name)
	}
	r.entries[e.Name] = e
	return nil
}

// MustRegister is Register, panicking on error; for init-time use.
func (r *WorkloadRegistry) MustRegister(e WorkloadEntry) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Lookup finds an entry by name.
func (r *WorkloadRegistry) Lookup(name string) (WorkloadEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// TraceScheme prefixes workload names that resolve to recorded trace
// files instead of registered generators: "trace:/path/to/run.htrc".
const TraceScheme = "trace:"

// CorpusScheme prefixes workload names that resolve through a
// content-addressed trace corpus (internal/corpus): "corpus:<sha256>".
// Unlike trace:<path>, the hash names the trace BYTES, not a mutable
// file, so corpus workloads are sound inputs for content-addressed
// result caching and the experiment service accepts them where it
// rejects trace paths.
const CorpusScheme = "corpus:"

// corpusResolver maps a corpus hash to a local trace file path. It is
// process-global, like the registries themselves: the daemon installs its
// store's lookup at startup, and every resolution path (experiments,
// sweeps, composed specs) reaches it through the same table.
var (
	corpusMu      sync.RWMutex
	corpusResolve func(hash string) (string, error)
)

// SetCorpusResolver installs fn as the process-wide corpus: resolver.
// Passing nil uninstalls it, after which corpus workloads fail to build
// with a descriptive error.
func SetCorpusResolver(fn func(hash string) (string, error)) {
	corpusMu.Lock()
	corpusResolve = fn
	corpusMu.Unlock()
}

// ResolveCorpus maps a corpus hash to the trace file path backing it,
// through the installed resolver.
func ResolveCorpus(hash string) (string, error) {
	if !errfs.ValidHash(hash) {
		return "", fmt.Errorf("registry: corpus hash %q is not a lowercase hex sha256", hash)
	}
	corpusMu.RLock()
	fn := corpusResolve
	corpusMu.RUnlock()
	if fn == nil {
		return "", fmt.Errorf("registry: no corpus store in this process (corpus: workloads resolve inside the daemon; use trace:<path> locally)")
	}
	return fn(hash)
}

// New constructs the named workload. Composition specs (grammar.go —
// "mix:", "phases:", "repeat:", "offset:", "scale:", or a parenthesized
// spec) are parsed and built recursively, with every tenant seeded from a
// splitmix64 derivation of p.Seed so same-generator tenants draw distinct
// streams. Names starting with TraceScheme open the trace file after the
// prefix (WorkloadParams do not apply: the trace header fixes the page
// space and the recorded stream is literal); names starting with
// CorpusScheme do the same after mapping the content hash to a stored
// trace through the installed resolver (SetCorpusResolver). Other names
// resolve through the registered entries, with an error naming the known
// workloads when the name is not registered.
func (r *WorkloadRegistry) New(name string, p WorkloadParams) (trace.Source, error) {
	if isCompositeSpec(name) {
		return r.newComposite(name, p)
	}
	if path, ok := strings.CutPrefix(name, TraceScheme); ok {
		if path == "" {
			return nil, fmt.Errorf("registry: %q needs a path after the scheme", name)
		}
		src, err := tracefile.Open(path)
		if err != nil {
			return nil, fmt.Errorf("registry: workload %q: %w", name, err)
		}
		return src, nil
	}
	if hash, ok := strings.CutPrefix(name, CorpusScheme); ok {
		path, err := ResolveCorpus(hash)
		if err != nil {
			return nil, fmt.Errorf("registry: workload %q: %w", name, err)
		}
		src, err := tracefile.Open(path)
		if err != nil {
			return nil, fmt.Errorf("registry: workload %q: %w", name, err)
		}
		return src, nil
	}
	e, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown workload %q (known: %s)",
			name, strings.Join(r.Names(), ", "))
	}
	return e.New(p)
}

// Names returns every registered workload name, sorted.
func (r *WorkloadRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Policies is the process-wide policy registry. internal/core and
// internal/baselines self-register into it from init.
var Policies = NewPolicyRegistry()

// Workloads is the process-wide workload registry. The workload packages
// self-register into it from init.
var Workloads = NewWorkloadRegistry()
