package sim

// The differential contract: Run, fetching a cell's stream in any of the
// forms it supports and recycling one Scratch, must marshal to exactly the
// bytes the reference simulator (reference_test.go) produces.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/tracker"
)

// The synthetic sources register in the facade, which this package cannot
// import; the differential cells draw their own under the same names. The
// shift fires after 120k ops, late enough that a tick has stamped a clock.
func init() {
	registry.Workloads.MustRegister(registry.WorkloadEntry{Name: "zipf",
		New: func(p registry.WorkloadParams) (trace.Source, error) {
			return trace.NewZipfSource("zipf", p.Pages, 1.0, 0.1, p.Seed), nil
		}})
	registry.Workloads.MustRegister(registry.WorkloadEntry{Name: "shifting-zipf",
		New: func(p registry.WorkloadParams) (trace.Source, error) {
			return trace.NewShiftingZipfSource("shifting-zipf", p.Pages, 1.0, p.Seed, 120_000, 2.0/3.0), nil
		}})
	registry.Workloads.MustRegister(registry.WorkloadEntry{Name: "long-ops",
		New: func(p registry.WorkloadParams) (trace.Source, error) {
			return &longOps{Source: trace.NewZipfSource("long-ops", p.Pages, 1.0, 0.1, p.Seed)}, nil
		}})
}

// longOps is Zipf with every 50th op replaced by one of 1 000 accesses
// spread over the page space. At default latencies such an op takes over
// latHistMaxNs even when every access hits the fast tier, so it reaches
// the histograms' top bucket through Run's direct-observe path, and under
// a 1 ms series window many of them start in one window and end in the
// next.
type longOps struct {
	trace.Source
	op uint64
}

func (s *longOps) NextOp(dst []trace.Access) []trace.Access {
	if s.op++; s.op%50 != 0 {
		return s.Source.NextOp(dst)
	}
	n := uint64(s.NumPages())
	for j := uint64(0); j < 1000; j++ {
		dst = append(dst, trace.Access{Page: mem.PageID((s.op*131 + j*17) % n), Write: j%8 == 0})
	}
	return dst
}

func (s *longOps) ClockFree() bool { return true }

// refParams sizes every workload a cell draws.
var refParams = registry.WorkloadParams{
	Pages: 1 << 12, CacheObjects: 800, GraphScale: 10, GraphDegree: 8,
	Cells: 1 << 13, Records: 1 << 13, Rows: 1 << 13, Features: 8,
}

// refCell is one differential case. form is what Run fetches from: "live"
// generation, a "packed" ReplaySource fork, the "v1" trace file the
// reference's run recorded or its "v2" conversion, or a "dry" source that
// stops producing after 60% of the ops. The reference always generates
// live — through the recording tee for v1 and v2, through the same dry
// wrapper for dry. Zero ratio, seed, form and window mean 8, 7, "live" and
// 1 ms — fine enough that every run crosses many series windows.
type refCell struct {
	name, workload, policy, form string
	ratio                        int
	huge, cache                  bool
	ops, window                  int64
	seed                         uint64
	// wrap, when set, puts the registered policy behind a test wrapper.
	wrap func(tier.Policy) tier.Policy
}

// askFaults hides a fault-driven policy's arming bitmap, so the simulator
// must ask WantsFault on every access — the shape of a policy that keeps
// no bitmap, or of one behind a timing shim.
func askFaults(p tier.Policy) tier.Policy {
	return struct{ tier.FaultDriven }{p.(tier.FaultDriven)}
}

// nilBitmap claims an arming bitmap but returns none, which the simulator
// must treat like no bitmap at all.
type nilBitmap struct{ tier.FaultDriven }

func (nilBitmap) FaultBitmap() []uint64 { return nil }

func dropBitmap(p tier.Policy) tier.Policy { return nilBitmap{p.(tier.FaultDriven)} }

// meddler is a fault-driven policy that reaches what the registered ones
// leave alone, so that the order of the work around a fault shows in the
// result bytes. On every fault it touches metadata (meeting the cache
// model's application lines) and promotes the pages on either side, which
// may hold a sample not yet delivered, or may never have been touched, so
// that their recency stamp is whatever the recycled array held. It adds
// the slow-tier samples it is handed, their times and the faulting page's
// recency stamp into its metadata footprint, so that a sample or a stamp
// taken at the wrong time shows too.
type meddler struct {
	tier.FaultBitmapped
	env  tier.Env
	seen int64
}

func meddle(p tier.Policy) tier.Policy {
	return &meddler{FaultBitmapped: p.(tier.FaultBitmapped)}
}

func (p *meddler) Attach(env tier.Env) {
	p.env = env
	p.FaultBitmapped.Attach(env)
}

func (p *meddler) OnFault(page mem.PageID, t mem.Tier) {
	p.seen += p.env.LastAccess(page)
	p.env.TouchMeta(int64(page) * 64)
	p.FaultBitmapped.OnFault(page, t)
	if page > 0 {
		_ = p.env.Promote(page - 1)
	}
	_ = p.env.Promote(page + 1) // past the last page, a no-op
}

func (p *meddler) OnSamples(batch []tier.Sample) {
	for _, x := range batch {
		if p.seen += x.Time; x.Tier == mem.Slow {
			p.seen++
		}
	}
	p.FaultBitmapped.OnSamples(batch)
}

func (p *meddler) MetadataBytes() int64 { return p.FaultBitmapped.MetadataBytes() + p.seen }

// config builds the cell's simulation over w, sized like the facade sizes a
// 1:ratio split.
func (c refCell) config(t *testing.T, w trace.Source) Config {
	bare, kind, _ := registry.SplitPolicyQualifier(c.policy)
	entry, ok := registry.Policies.Lookup(bare)
	if !ok {
		t.Fatalf("unknown policy %q", bare)
	}
	if kind == "" {
		kind = entry.Tracker
	}
	pages, fast := w.NumPages(), max(w.NumPages()/(c.ratio+1), 16)
	if c.huge {
		pages, fast = (pages+511)/512, max(fast/512, 4)
	}
	p, alloc, err := entry.New(pages, fast, c.huge)
	if err != nil {
		t.Fatal(err)
	}
	if c.wrap != nil {
		p = c.wrap(p)
	}
	cfg := DefaultConfig(w, p, fast)
	cfg.Ops, cfg.Alloc, cfg.AppCacheModel, cfg.Tracker.Kind = c.ops, alloc, c.cache, kind
	cfg.WindowNs = c.window
	if c.huge {
		cfg.PageBytes = mem.HugePageBytes
	}
	return cfg
}

// check runs the cell through the reference and through Run (with sc),
// demands byte-equal Result JSON, and returns the result.
func (c refCell) check(t *testing.T, sc *Scratch) *Result {
	t.Helper()
	c.ratio, c.seed, c.form, c.window = cmp.Or(c.ratio, 8), cmp.Or(c.seed, 7), cmp.Or(c.form, "live"), cmp.Or(c.window, 1_000_000)
	gen := func() trace.Source {
		p := refParams
		p.Seed = c.seed
		w, err := registry.Workloads.New(c.workload, p)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ref, fed := gen(), trace.Source(nil)
	var path string
	var rec *tracefile.Writer
	switch c.form {
	case "live":
		fed = gen()
	case "packed":
		rs := trace.NewReplaySource(gen(), c.ops, 1<<24)
		if rs == nil {
			t.Fatalf("%s does not pack", c.workload)
		}
		fed = rs.Fork()
	case "dry":
		ref, fed = dry(ref, c.ops), dry(gen(), c.ops)
	case "v1", "v2":
		var err error
		path = filepath.Join(t.TempDir(), "cell.htrc")
		if rec, err = tracefile.Create(path, tracefile.MetaOf(ref, c.seed)); err != nil {
			t.Fatal(err)
		}
		ref = tracefile.NewRecorder(ref, rec)
	default:
		t.Fatalf("unknown form %q", c.form)
	}
	want, err := reference(c.config(t, ref))
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if c.form == "v2" {
			if err := tracefile.Convert(path, path+"2", tracefile.Version2); err != nil {
				t.Fatal(err)
			}
			path += "2"
		}
		r, err := tracefile.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		fed = r
	}
	cfg := c.config(t, fed)
	cfg.Scratch = sc
	got, err := Run(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	g, gerr := json.Marshal(got)
	w, werr := json.Marshal(want)
	if gerr != nil || werr != nil {
		t.Fatal(gerr, werr)
	} else if !bytes.Equal(g, w) {
		t.Fatalf("%+v: Run diverges from the reference %s", c, firstDiff(g, w))
	}
	return want
}

// firstDiff shows where two marshaled results part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	return fmt.Sprintf("at byte %d:\n got …%s\nwant …%s", i, got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}

// shortSource produces its first ops, then empty ones forever — the shape
// of a failed trace replay — through both fetch methods.
type shortSource struct {
	trace.BatchSource
	left int64
}

func dry(w trace.Source, ops int64) *shortSource {
	return &shortSource{BatchSource: trace.AsBatchSource(w), left: ops * 3 / 5}
}

func (s *shortSource) NextOp(dst []trace.Access) []trace.Access {
	if s.left <= 0 {
		return dst
	}
	s.left--
	return s.BatchSource.NextOp(dst)
}

func (s *shortSource) NextBatch(dst []trace.Access, max int) []trace.Access {
	if max = int(min(int64(max), s.left)); max <= 0 {
		return dst
	}
	n := len(dst)
	dst = s.BatchSource.NextBatch(dst, max)
	for _, a := range dst[n:] {
		if a.EndOp {
			s.left--
		}
	}
	return dst
}

// TestRunMatchesReference is the differential table: every registered
// policy, all three tracker kinds, the five workload packages and the
// synthetic sources (long-ops reaching past the latency histograms'
// bound, and under a 5 µs window opening windows they outlast), composed and shifting streams, huge pages, the cache model and
// every fetch form, with one Scratch recycled through all rows —
// a row inherits buffers from a different tracker, geometry and policy, and
// none of it may reach its bytes. Rows on a scanning tracker run ≥ 200k ops
// so they cross 20 ms scans, and must take samples, or their equality
// would hold vacuously; rows over a shifting source must stamp the shift
// after a tick (no row runs soft-dirty over an all-read workload,
// which sees nothing by design).
func TestRunMatchesReference(t *testing.T) {
	sc := new(Scratch)
	for _, c := range []refCell{
		{name: "silo", workload: "silo", policy: "HybridTier", ops: 30_000},
		{name: "silo-huge", workload: "silo", policy: "HybridTier", huge: true, ops: 30_000},
		{name: "zipf-packed", workload: "zipf", policy: "Memtis", form: "packed", ops: 30_000},
		{name: "shifting-zipf", workload: "shifting-zipf", policy: "HybridTier-onlyFreq", form: "packed", ops: 160_000},
		{name: "cdn-v1", workload: "cdn", policy: "TPP", form: "v1", ops: 300_000},
		{name: "mix-v2", workload: "mix:0.7*cdn,0.3*silo", policy: "ARC", form: "v2", ops: 30_000},
		{name: "phases", workload: "phases:zipf@8000,(offset:silo+4096)", policy: "AutoNUMA", ops: 300_000},
		{name: "mix-shift", workload: "mix:0.6*shifting-zipf,0.4*xgboost", policy: "TwoQ", form: "packed", ops: 220_000},
		{name: "exhausted-source", workload: "zipf", policy: "FirstTouch", form: "dry", ops: 50_000},
		{name: "cache-model", workload: "bfs-kron", policy: "HybridTier-CBF", cache: true, form: "v2", ops: 30_000},
		{name: "all-fast", workload: "bwaves", policy: "AllFast", ops: 30_000, window: 100_000_000},
		{name: "cdn-idlepage", workload: "cdn", policy: "Heat-Idle", ops: 200_000},
		{name: "cdn-softdirty", workload: "cdn", policy: "LRU@softdirty", form: "packed", ops: 200_000},
		{name: "mix-idlepage", workload: "mix:0.7*zipf,0.3*silo", policy: "Memtis@idlepage", form: "v1", ops: 200_000},
		{name: "zipf-softdirty", workload: "zipf", policy: "Heat-Dirty", form: "v2", ops: 400_000},
		{name: "social-dry-idlepage", workload: "social", policy: "Age-Idle", form: "dry", ops: 300_000},
		{name: "huge-cache-idlepage", workload: "cdn", policy: "HybridTier@idlepage", huge: true, cache: true, ops: 200_000},
		{name: "long-ops", workload: "long-ops", policy: "HybridTier", ops: 30_000},
		{name: "long-ops-5us", workload: "long-ops", policy: "HybridTier", ops: 30_000, window: 5_000},
		// 2^31 4 KB pages, one zipf page per huge page: a v1 trace or live
		// generation holds the space, packed batches carry its 4 KB page
		// ids past 2^30 in 64-bit words, and the cache model, at faults
		// too, sees the 4 KB ones.
		{name: "huge-past-2^30-v1", workload: "scale:zipf*524288", policy: "HybridTier", huge: true, cache: true, form: "v1", ratio: 8191, ops: 30_000},
		{name: "huge-past-2^30-fault-lines", workload: "scale:zipf*524288", policy: "TPP", huge: true, cache: true, ratio: 8191, ops: 200_000},
		// Packed replays, each named after the kernel stop it exercises.
		{name: "stop-at-fault-bitmap", workload: "cdn", policy: "AutoNUMA", form: "packed", ops: 300_000},
		{name: "stop-at-fault-tpp", workload: "social", policy: "TPP", form: "packed", ops: 100_000},
		{name: "stop-at-every-access-unbitmapped", workload: "social", policy: "TPP", form: "packed", ops: 100_000, wrap: askFaults},
		{name: "stop-at-every-access-nil-bitmap", workload: "cdn", policy: "AutoNUMA", form: "packed", ops: 100_000, wrap: dropBitmap},
		{name: "stop-when-period-1-samples-may-drain", workload: "cdn", policy: "Heat-Idle", form: "packed", ops: 200_000},
		{name: "stop-at-tick-inside-a-window", workload: "silo", policy: "HybridTier", form: "packed", ops: 100_000, window: 100_000_000},
		{name: "stop-at-long-op", workload: "long-ops", policy: "HybridTier", form: "packed", ops: 30_000},
		{name: "stop-with-app-cache-lines", workload: "silo", policy: "Memtis", cache: true, form: "packed", ops: 30_000},
		// After the TPP rows the recycled recency array holds their stamps;
		// a page the meddler promotes untouched must read 0, not those.
		{name: "stop-at-fault-meddled", workload: "social", policy: "TPP", cache: true, form: "packed", ops: 100_000, wrap: meddle},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := c.check(t, sc)
			if c.workload == "long-ops" && res.P99LatNs < latHistMaxNs {
				t.Errorf("p99 = %d ns: the long ops never reached the histogram bound %d", res.P99LatNs, latHistMaxNs)
			}
			if res.Tracker != "" && (c.ops < 200_000 || res.Pebs.Sampled == 0) {
				t.Errorf("%s tracker sampled nothing in %d ops: the row never crosses a scan", res.Tracker, c.ops)
			}
			if strings.Contains(c.workload, "shifting") && res.ShiftNs <= 0 {
				t.Errorf("shift_ns = %d: the shift never fired after a tick, so no stamp was checked", res.ShiftNs)
			}
		})
	}
}

// TestRunFoldsLatencyCountsEarly shrinks the op budget of a window's
// latency counts so that Run folds them many times inside one window,
// including on a source whose clock stops (the dry rows); the bytes must
// not move.
func TestRunFoldsLatencyCountsEarly(t *testing.T) {
	defer func(n int64) { latFlushOps = n }(latFlushOps)
	latFlushOps = 3
	sc := new(Scratch)
	for _, c := range []refCell{
		{workload: "long-ops", policy: "HybridTier", ops: 20_000},
		{workload: "zipf", policy: "FirstTouch", form: "dry", ops: 20_000, window: 100_000_000},
		{workload: "social", policy: "TPP", form: "packed", ops: 20_000},
	} {
		c.check(t, sc)
	}
}

// FuzzRunMatchesReference draws cells from the space the table samples: a
// grammar workload over the registered generators, any policy under any
// tracker, ratio, huge pages, the cache model, op count, seed, series
// window and fetch form, recycling one Scratch (a fuzzing process runs one
// input at a time). CI's fuzz-smoke job fuzzes it; go test runs the seeds.
func FuzzRunMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(1), uint8(0), uint8(0), uint8(8), uint8(0b100), uint32(20_000))
	f.Add(uint8(1), uint8(7), uint8(2), uint8(5), uint8(2), uint8(3), uint8(0b1011), uint32(15_000))
	f.Add(uint8(8), uint8(0), uint8(4), uint8(9), uint8(3), uint8(15), uint8(0b10001), uint32(10_000))
	leaves := []string{"zipf", "shifting-zipf", "long-ops", "cdn", "social", "silo", "bwaves", "roms", "xgboost", "bfs-kron", "cc-urand", "pr-kron"}
	shapes := []string{"%[1]s", "mix:0.6*%[1]s,0.4*%[2]s", "phases:%[1]s@5000,%[2]s",
		"offset:%[1]s+100", "repeat:%[1]s@3000", "scale:%[1]s*2"}
	policies := registry.Policies.Names()
	trackers := append([]string{""}, tracker.Kinds()...)
	forms := []string{"live", "packed", "v1", "v2", "dry"}
	sc := new(Scratch)
	f.Fuzz(func(t *testing.T, a, b, shape, pol, trk, ratio, flags uint8, ops uint32) {
		c := refCell{
			workload: fmt.Sprintf(shapes[int(shape)%len(shapes)], leaves[int(a)%len(leaves)], leaves[int(b)%len(leaves)]),
			policy:   policies[int(pol)%len(policies)],
			form:     forms[int(flags>>2)%len(forms)],
			ratio:    1 + int(ratio%16),
			window:   []int64{1_000_000, 100_000_000}[ratio>>7],
			huge:     flags&1 != 0,
			cache:    flags&2 != 0,
			ops:      1_000 + int64(ops%250_000),
			seed:     1 + uint64(flags>>5),
		}
		if k := trackers[int(trk)%len(trackers)]; k != "" {
			c.policy += registry.PolicyQualifierSep + k
		}
		c.check(t, sc)
	})
}
