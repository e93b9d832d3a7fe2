// Package tracker abstracts how the tiering runtime observes memory
// accesses. The paper's runtime is written against one facility — the
// PEBS-style subsampled address stream of internal/pebs — but production
// tiering daemons (Intel's memtierd in cri-resource-manager, kernel
// tiering) choose among *trackers*: hardware event sampling, idle-page
// bitmap scans, soft-dirty write tracking, DAMON-style region sampling.
// This package defines the pluggable Tracker contract the simulator
// drives, with PEBS sampling as the reference kind and two
// memtierd-inspired scanning trackers beside it.
//
// All kinds speak one drain protocol (Algorithm 1) because all embed the
// one pebs.Buffer: accesses go in through Observe, samples come out in
// batches through Drain, and the bounded buffer drops under overload. What
// differs is *when* samples materialize — per access for PEBS, at
// periodic scan boundaries (Sync) for the bitmap trackers — and what
// they can see (soft-dirty observes only writes).
package tracker

import (
	"fmt"
	"strings"

	"repro/internal/mem"
	"repro/internal/pebs"
)

// Tracker kinds. Kind strings appear in sweep specs and qualified policy
// names ("LRU@idlepage"), so they are part of the public API.
const (
	// KindPEBS is hardware event-based sampling (the reference tracker).
	KindPEBS = "pebs"
	// KindIdlepage periodically scans and clears per-page accessed bits,
	// like memtierd's idlepage tracker over /sys/kernel/mm/page_idle.
	KindIdlepage = "idlepage"
	// KindSoftDirty periodically scans and clears per-page write bits,
	// like memtierd's soft-dirty tracker over /proc/pid/clear_refs; reads
	// are invisible to it.
	KindSoftDirty = "softdirty"
)

// Kinds returns the known tracker kinds in sorted order.
func Kinds() []string { return []string{KindIdlepage, KindPEBS, KindSoftDirty} }

// KnownKinds returns the sorted kind list as a single string for error
// messages ("idlepage, pebs, softdirty").
func KnownKinds() string { return strings.Join(Kinds(), ", ") }

// Normalize resolves a kind name: the empty string means the default
// (PEBS) tracker. Unknown names are an error listing the known kinds.
func Normalize(kind string) (string, error) {
	switch kind {
	case "", KindPEBS:
		return KindPEBS, nil
	case KindIdlepage, KindSoftDirty:
		return kind, nil
	}
	return "", fmt.Errorf("tracker: unknown kind %q (known: %s)", kind, KnownKinds())
}

// Config selects and parameterizes a tracker.
type Config struct {
	// Kind is one of the Kind* constants; empty selects KindPEBS.
	Kind string
	// Pebs configures the PEBS tracker (ignored by scanning kinds).
	Pebs pebs.Config
	// ScanNs is the scan period of the bitmap trackers in virtual ns.
	// memtierd scans every few hundred ms against real footprints; the
	// default is scaled to the simulator's footprints like the PEBS
	// period is.
	ScanNs int64
	// BufferSize bounds the scanning trackers' sample ring (same drop
	// semantics as pebs.Config.BufferSize).
	BufferSize int
}

// scanCostPerPageNs is the tiering-thread cost of scanning one page's bit
// — the sequential bitmap read that makes idlepage cheap per page but
// proportional to the whole footprint per scan.
const scanCostPerPageNs = 0.5

// DefaultConfig returns the default tracker setup: PEBS sampling with the
// scanning parameters ready should the kind be switched.
func DefaultConfig() Config {
	return Config{
		Kind:       KindPEBS,
		Pebs:       pebs.DefaultConfig(),
		ScanNs:     20_000_000, // 20 virtual ms per full-footprint scan
		BufferSize: 1 << 16,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	kind, err := Normalize(c.Kind)
	if err != nil {
		return err
	}
	if kind == KindPEBS {
		return c.Pebs.Validate()
	}
	if c.ScanNs <= 0 {
		return fmt.Errorf("tracker: ScanNs must be positive, got %d", c.ScanNs)
	}
	if c.BufferSize <= 0 {
		return fmt.Errorf("tracker: BufferSize must be positive, got %d", c.BufferSize)
	}
	return nil
}

// Tracker is a pluggable memory-access observer. The simulator feeds it
// every access (subject to the Period countdown it hoists into its own
// loop), gives it a chance to do periodic work at tick boundaries via
// Sync, and drains its sample ring into the policy in batches. Trackers
// are not safe for concurrent use.
type Tracker interface {
	// Kind returns the tracker's kind constant.
	Kind() string
	// Period is the Observe subsampling period: the caller delivers every
	// Period-th access (hoisting the skip countdown into its hot loop) and
	// folds the unfired remainder back via ObserveSkipped. Scanning
	// trackers return 1 — they must see every access to set bits.
	Period() int
	// Observe feeds one (subsampled) access; it adds at most one sample
	// to Pending (the simulator relies on that to defer its drain checks).
	Observe(page mem.PageID, tier mem.Tier, now int64, write bool)
	// ObserveSkipped accounts accesses observed by the caller's hoisted
	// countdown without reaching the period, keeping Stats().Accesses
	// exact.
	ObserveSkipped(n int)
	// Sync runs periodic tracker work (bitmap scans) as of the given
	// virtual time and returns the tiering-thread cost in ns incurred now
	// (0 when no scan fired). The caller invokes it at every policy tick.
	Sync(now int64) float64
	// Pending returns the number of buffered samples.
	Pending() int
	// Drain moves up to max buffered samples into dst (appending) and
	// returns the extended slice; max <= 0 drains everything.
	Drain(dst []pebs.Sample, max int) []pebs.Sample
	// Ring exposes the tracker's backing sample buffer for reuse pools;
	// the tracker must not be used afterwards.
	Ring() []pebs.Sample
	// Stats returns the access/sample/drop/drain counters.
	Stats() pebs.Stats
}

// New builds the configured tracker. numPages sizes the scanning
// trackers' bitmaps (at the simulation's tracking granularity, so huge
// pages shrink them 512×); ring, when non-nil, recycles a sample buffer
// from a previous run (scrubbed before use, see pebs.NewBuffer).
func New(cfg Config, numPages int, ring []pebs.Sample) (Tracker, error) {
	kind, err := Normalize(cfg.Kind)
	if err != nil {
		return nil, err
	}
	norm := cfg
	norm.Kind = kind
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	switch kind {
	case KindPEBS:
		return &pebsTracker{
			buffered: buffered{Buffer: pebs.NewBuffer(ring, norm.Pebs.BufferSize)},
			period:   norm.Pebs.Period,
		}, nil
	case KindIdlepage:
		return &idlepage{newScanTracker(norm, numPages, ring)}, nil
	case KindSoftDirty:
		return &softDirty{newScanTracker(norm, numPages, ring)}, nil
	}
	panic("unreachable: Normalize admitted kind " + kind)
}

// buffered is what every kind embeds: the one sample buffer — Pending,
// Drain and Ring are its methods, promoted — and the access count that
// stands behind its Stats.
type buffered struct {
	pebs.Buffer
	accesses uint64
}

func (b *buffered) ObserveSkipped(n int) {
	if n > 0 {
		b.accesses += uint64(n)
	}
}

func (b *buffered) Stats() pebs.Stats { return b.Buffer.Stats(b.accesses) }

// pebsTracker is hardware event sampling: the caller's hoisted countdown
// delivers every period-th access, each of which becomes one sample and
// accounts the whole period (itself plus the period-1 skipped before it).
// Hardware sampling has no periodic scan, so Sync is free.
type pebsTracker struct {
	buffered
	period int
}

func (t *pebsTracker) Kind() string { return KindPEBS }
func (t *pebsTracker) Period() int  { return t.period }

func (t *pebsTracker) Observe(page mem.PageID, tier mem.Tier, now int64, _ bool) {
	t.accesses += uint64(t.period)
	t.Take(pebs.Sample{Page: page, Tier: tier, Time: now})
}

func (t *pebsTracker) Sync(int64) float64 { return 0 }
