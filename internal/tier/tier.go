// Package tier defines the contract between tiering policies (HybridTier
// and the baselines) and the simulation driver. A policy consumes sampled
// memory accesses (and, for fault-driven systems such as AutoNUMA and TPP,
// page-fault events), and issues promotions and demotions through its
// environment, which charges migration costs and routes metadata traffic
// through the cache model.
package tier

import (
	"repro/internal/mem"
	"repro/internal/pebs"
)

// Sample aliases the PEBS sample record all policies consume.
type Sample = pebs.Sample

// Env is the world a policy acts on. The simulator provides the production
// implementation; tests use lightweight fakes.
type Env interface {
	// Mem exposes the tiered memory for placement queries and scans.
	Mem() *mem.Memory
	// Now returns the current virtual time in nanoseconds.
	Now() int64
	// Promote moves a page to the fast tier, charging migration cost.
	// It returns mem.ErrFastFull when no capacity remains.
	Promote(p mem.PageID) error
	// Demote moves a page to the slow tier, charging migration cost.
	Demote(p mem.PageID) error
	// Charge accounts ns nanoseconds of tiering-thread CPU work (cooling
	// sweeps, address-space scans). It runs off the application's critical
	// path but contends for shared resources.
	Charge(ns float64)
	// TouchMeta routes one tiering-metadata memory reference at the given
	// byte offset (within the policy's metadata region) through the cache
	// model. It is a no-op when cache modeling is disabled.
	TouchMeta(offset int64)
	// LastAccess returns the virtual time of the most recent access to p
	// (0 if never accessed). It models the page-table accessed-bit /
	// kernel-LRU information that recency-based systems (AutoNUMA's MGLRU,
	// TPP's inactive lists) consult for demotion; sample-based policies
	// must not use it.
	LastAccess(p mem.PageID) int64
}

// Policy is a memory tiering system.
type Policy interface {
	// Name identifies the policy in reports ("HybridTier", "Memtis", ...).
	Name() string
	// Attach binds the policy to its environment. It is called exactly once
	// before any event delivery.
	Attach(env Env)
	// OnSamples delivers a drained batch of PEBS samples (Algorithm 1).
	OnSamples(batch []Sample)
	// Tick fires at the configured tick period of virtual time; policies
	// perform cooling, scans, and watermark demotion here.
	Tick()
	// MetadataBytes reports current tiering-metadata memory consumption,
	// the quantity Table 4 compares.
	MetadataBytes() int64
}

// RecencyFree is implemented by policies that never call Env.LastAccess
// (sample-driven systems, per its contract). Declaring it lets the
// simulator skip the per-access recency bookkeeping — a random 8-byte
// store per touch — without changing any result the policy can observe.
type RecencyFree interface {
	// RecencyFree is a marker; implementations promise LastAccess is
	// never consulted.
	RecencyFree()
}

// FaultBitmapped is how a FaultDriven policy arms its faults: it exposes
// its live fault-arming bitmap (bit p&63 of word p>>6 set means an access
// to page p faults), which the simulator tests with one inline load per
// access, invoking OnFault only for armed pages. The returned slice must be
// the policy's working bitmap for its whole lifetime (mutated in place,
// never reallocated), cover every page (at least (pages+63)/64 words),
// and agree with WantsFault exactly. sim.Run rejects a FaultDriven policy
// that is not FaultBitmapped or whose bitmap is short.
type FaultBitmapped interface {
	FaultDriven
	// FaultBitmap returns the live arming bitmap.
	FaultBitmap() []uint64
}

// FaultDriven is implemented by recency-based systems that react to page
// (hint) faults rather than hardware samples: OnFault is raised for
// accesses to watched pages. Which pages are watched is read from the
// policy's FaultBitmapped bitmap; WantsFault states the same per page,
// for the naive reference simulator that asks it on every access, so
// implementations must keep it O(1).
type FaultDriven interface {
	Policy
	// WantsFault reports whether an access to p should raise a fault.
	WantsFault(p mem.PageID) bool
	// OnFault delivers a fault for page p served from tier t.
	OnFault(p mem.PageID, t mem.Tier)
}

// NopEnv is an Env that applies migrations to a Memory and only sums
// costs: the Env of unit tests that exercise a policy in isolation.
type NopEnv struct {
	M        *mem.Memory
	Clock    int64
	Charged  float64
	Touches  []int64
	Accesses map[mem.PageID]int64
}

var _ Env = (*NopEnv)(nil)

// Mem implements Env.
func (e *NopEnv) Mem() *mem.Memory { return e.M }

// Now implements Env.
func (e *NopEnv) Now() int64 { return e.Clock }

// Promote implements Env.
func (e *NopEnv) Promote(p mem.PageID) error { return e.M.Promote(p) }

// Demote implements Env.
func (e *NopEnv) Demote(p mem.PageID) error { return e.M.Demote(p) }

// Charge implements Env.
func (e *NopEnv) Charge(ns float64) { e.Charged += ns }

// TouchMeta implements Env.
func (e *NopEnv) TouchMeta(off int64) { e.Touches = append(e.Touches, off) }

// LastAccess implements Env.
func (e *NopEnv) LastAccess(p mem.PageID) int64 { return e.Accesses[p] }
