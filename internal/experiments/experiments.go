// Package experiments regenerates every measurement table and figure in the
// HybridTier paper's evaluation (§2 motivation figures, §6 evaluation
// figures 9-17, tables 3-5). Each experiment is a named runner producing a
// Table; htiersim -experiment prints them and bench_test.go wraps them in
// testing.B targets.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	hybridtier "repro"
	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/workloads/cachelib"
)

// Scale selects experiment sizing. Quick keeps unit tests and `go test
// -bench` fast; Full is what htiersim -experiment -scale full runs to
// regenerate the paper's tables at the repository's reference scale.
type Scale struct {
	Name            string
	Ops             int64 // ops per simulation run
	AdaptOps        int64 // ops for adaptation-timeline experiments
	CacheLibObjects int
	GapScale        int
	SpecCells       int
	SiloRecords     int
	XGBRows         int
	XGBFeatures     int
	Ratios          []int // fast:slow ratios (1:N)
}

// Quick is the test-suite scale: every experiment finishes in seconds.
var Quick = Scale{
	Name:            "quick",
	Ops:             150_000,
	AdaptOps:        1_500_000,
	CacheLibObjects: 4_000,
	GapScale:        13,
	SpecCells:       1 << 16,
	SiloRecords:     1 << 15,
	XGBRows:         1 << 17,
	XGBFeatures:     32,
	Ratios:          []int{16, 4},
}

// Tiny is the smallest scale that still exercises every code path; the
// test suite and the testing.B wrappers in bench_test.go use it so
// `go test ./...` and `go test -bench=.` stay fast.
var Tiny = Scale{
	Name:            "tiny",
	Ops:             40_000,
	AdaptOps:        120_000,
	CacheLibObjects: 1_500,
	GapScale:        11,
	SpecCells:       1 << 14,
	SiloRecords:     1 << 15,
	XGBRows:         1 << 15,
	XGBFeatures:     16,
	Ratios:          []int{8},
}

// Full is the reference reproduction scale.
var Full = Scale{
	Name:            "full",
	Ops:             1_500_000,
	AdaptOps:        6_000_000,
	CacheLibObjects: 30_000,
	GapScale:        17,
	SpecCells:       1 << 21,
	SiloRecords:     1 << 20,
	XGBRows:         1 << 20,
	XGBFeatures:     64,
	Ratios:          []int{16, 8, 4},
}

// WorkloadNames lists the twelve evaluation workloads (Table 2) in the
// paper's reporting order.
func WorkloadNames() []string {
	return []string{
		"cdn", "social",
		"bfs-kron", "bfs-urand", "cc-kron", "cc-urand", "pr-kron", "pr-urand",
		"bwaves", "roms", "silo", "xgboost",
	}
}

// gapDegree is the average vertex degree of every scale's GAP graphs.
const gapDegree = 8

// Params converts this scale's sizing knobs into the registry's workload
// parameters for one seeded instance.
func (s Scale) Params(seed uint64) registry.WorkloadParams {
	return registry.WorkloadParams{
		Seed:         seed,
		CacheObjects: s.CacheLibObjects,
		GraphScale:   s.GapScale,
		GraphDegree:  gapDegree,
		Cells:        s.SpecCells,
		Records:      s.SiloRecords,
		Rows:         s.XGBRows,
		Features:     s.XGBFeatures,
	}
}

// Workload constructs a fresh, deterministic instance of the named
// workload at this scale through the workload registry.
func (s Scale) Workload(name string, seed uint64) (trace.Source, error) {
	return registry.Workloads.New(name, s.Params(seed))
}

// ShiftingCacheLib builds the CDN or social-graph workload with the
// §2.3.2 bulk distribution shift after shiftOps operations.
func (s Scale) ShiftingCacheLib(name string, seed uint64, shiftOps int64) (trace.ShiftSource, error) {
	var cfg cachelib.Config
	switch name {
	case "cdn":
		cfg = cachelib.CDN(seed)
		cfg.Objects = s.CacheLibObjects
	case "social":
		cfg = cachelib.SocialGraph(seed)
		cfg.Objects = s.CacheLibObjects * 6
	default:
		return nil, fmt.Errorf("experiments: no shifting variant of %q", name)
	}
	cfg.ChurnEveryOps = 0 // isolate the bulk shift
	cfg.ShiftAfterOps = shiftOps
	cfg.ShiftFrac = 2.0 / 3.0
	return cachelib.New(cfg)
}

// PolicyNames lists the systems compared in Figures 9-10, in plot order.
// Every entry must exist in the policy registry (enforced by test); the
// full selectable set is registry.Policies.Names().
func PolicyNames() []string {
	return []string{"TPP", "AutoNUMA", "Memtis", "ARC", "TwoQ", "HybridTier"}
}

// Policy constructs the named tiering system through the policy registry
// for a page space and fast-tier capacity, returning the policy and the
// first-touch allocation mode §5.2 prescribes for it, at 4 KB granularity.
func Policy(name string, numPages, fastPages int) (tier.Policy, mem.AllocMode, error) {
	return registry.Policies.New(name, numPages, fastPages, false)
}

// fastPagesFor returns the fast-tier capacity for a 1:N ratio over a
// footprint: fast = footprint/(N+1), preserving the paper's capacity split.
func fastPagesFor(footprint, ratio int) int {
	f := footprint / (ratio + 1)
	if f < 16 {
		f = 16
	}
	return f
}

// sweep runs the policies × ratios cross product for one workload
// concurrently through the facade's worker pool and returns the per-cell
// results keyed by (policy, ratio). Every cell shares the given seed so
// policies compare against the identical op stream.
func sweep(ctx context.Context, s Scale, workload string, policies []string, ratios []int, ops int64, seed uint64, extra ...hybridtier.Option) (map[string]map[int]*sim.Result, error) {
	pols := make([]hybridtier.PolicyName, len(policies))
	for i, p := range policies {
		pols[i] = hybridtier.PolicyName(p)
	}
	base := []hybridtier.Option{
		hybridtier.WithWorkloadName(workload),
		hybridtier.WithWorkloadParams(s.Params(seed)),
		hybridtier.WithOps(ops),
	}
	sw := &hybridtier.Sweep{
		Policies: pols,
		Ratios:   ratios,
		Seeds:    []uint64{seed},
		Base:     append(base, extra...),
	}
	cells, err := sw.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[int]*sim.Result, len(policies))
	for _, c := range cells {
		if c.Err != "" {
			return nil, fmt.Errorf("experiments: %s %s 1:%d: %s", workload, c.Policy, c.Ratio, c.Err)
		}
		pol := string(c.Policy)
		if out[pol] == nil {
			out[pol] = make(map[int]*sim.Result, len(ratios))
		}
		out[pol][c.Ratio] = c.Result
	}
	return out, nil
}

// Table is a formatted experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	line(dashes(widths))
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Experiment is one paper artifact regenerator. Run observes ctx: long
// sweeps stop promptly when it is canceled.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, s Scale) (*Table, error)
}

var experimentRegistry []Experiment

func register(e Experiment) { experimentRegistry = append(experimentRegistry, e) }

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), experimentRegistry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment by its ID ("fig9", "tab4", ...).
func ByID(id string) (Experiment, bool) {
	for _, e := range experimentRegistry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fmtUs renders nanoseconds as microseconds with two decimals.
func fmtUs(ns float64) string { return fmt.Sprintf("%.2f", ns/1000) }

// fmtRel renders a relative-performance value.
func fmtRel(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtPct renders a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
