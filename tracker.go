package hybridtier

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/tracker"
)

// Tracker kind names accepted by WithTracker, SweepSpec.Tracker, and
// "Policy@tracker" qualifiers (internal/tracker re-exported).
const (
	// TrackerPEBS is hardware event-based sampling — the default, and the
	// facility the paper's runtime is written against.
	TrackerPEBS = tracker.KindPEBS
	// TrackerIdlepage periodically scans and clears per-page accessed
	// bits, like memtierd's idlepage tracker.
	TrackerIdlepage = tracker.KindIdlepage
	// TrackerSoftDirty periodically scans and clears per-page write bits;
	// reads are invisible to it.
	TrackerSoftDirty = tracker.KindSoftDirty
)

// TrackerList returns (kind, one-line doc) pairs for CLI listings, sorted
// by kind.
func TrackerList() [][2]string {
	return [][2]string{
		{TrackerIdlepage, "periodic scan-and-clear of per-page accessed bits (memtierd idlepage)"},
		{TrackerPEBS, "hardware event-based sampling — the default"},
		{TrackerSoftDirty, "periodic scan-and-clear of per-page write bits; reads are invisible"},
	}
}

// ValidateTracker reports whether kind names a known tracker ("" is the
// default and valid), with the same diagnostic sweeps produce.
func ValidateTracker(kind string) error {
	_, err := normTrackerKind(kind)
	return err
}

// WithTracker selects the access tracker the simulation observes memory
// through (TrackerPEBS, TrackerIdlepage, TrackerSoftDirty). The empty
// default defers to the policy's registered tracker — PEBS for the
// paper's systems, idlepage or soft-dirty for the memtierd-lineage
// policies. A "Policy@tracker" qualifier on the policy name pins the
// choice per policy and wins over this option; forcing a different
// tracker than a qualifier pins is an error.
func WithTracker(kind string) Option {
	return func(e *Experiment) { e.tracker = kind }
}

// normTrackerKind resolves a tracker kind name ("" = PEBS) with the
// facade's error phrasing; the message is part of the service's 400
// contract and pinned by test.
func normTrackerKind(kind string) (string, error) {
	k, err := tracker.Normalize(kind)
	if err != nil {
		return "", fmt.Errorf("hybridtier: unknown tracker %q (known: %s)", kind, tracker.KnownKinds())
	}
	return k, nil
}

// resolveTracker resolves the tracker kind a cell runs under, combining a
// "Name@tracker" qualifier on the policy, a sweep/experiment-level forced
// kind, and the policy's registered default — in that precedence order. A
// qualifier and a conflicting forced kind is an error rather than a
// silent winner; errLabel names the forcing scope ("spec", "experiment")
// in that message.
func resolveTracker(policy string, forced string, errLabel string) (bare, kind string, err error) {
	bare, qual, qualified := registry.SplitPolicyQualifier(policy)
	entry, ok := registry.Policies.Lookup(bare)
	if !ok {
		return "", "", fmt.Errorf("hybridtier: unknown policy %q (known: %s)",
			policy, joinPolicies(Policies()))
	}
	switch {
	case qualified:
		kind, err = normTrackerKind(qual)
		if err != nil {
			return "", "", err
		}
		if forced != "" {
			forcedKind, ferr := normTrackerKind(forced)
			if ferr != nil {
				return "", "", ferr
			}
			if forcedKind != kind {
				return "", "", fmt.Errorf("hybridtier: policy %q pins tracker %q but the %s forces %q",
					policy, kind, errLabel, forcedKind)
			}
		}
	case forced != "":
		kind, err = normTrackerKind(forced)
		if err != nil {
			return "", "", err
		}
	default:
		kind, err = normTrackerKind(entry.Tracker)
		if err != nil {
			return "", "", err
		}
	}
	return bare, kind, nil
}
