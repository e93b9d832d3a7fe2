// Package sim is the discrete-event driver that connects a workload's
// access stream to a tiering policy over the tiered-memory model: the
// simulated analogue of §5.1's evaluation platform. It advances a virtual
// nanosecond clock by the latency of every operation, feeds the configured
// access tracker (PEBS-style sampling by default; see internal/tracker),
// delivers hint faults to fault-driven policies, charges migration
// and metadata costs, models bandwidth contention between application
// traffic and migrations, and produces the latency/throughput metrics and
// time series the paper's figures report.
package sim

import (
	"context"
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/stats"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/tracker"
	"repro/internal/xrand"
)

// Config describes one simulation run.
type Config struct {
	// Workload produces the access stream.
	Workload trace.Source
	// Policy is the tiering system under test.
	Policy tier.Policy
	// FastPages is the fast-tier capacity. The slow tier holds the rest of
	// the workload's page space.
	FastPages int
	// PageBytes is the page size (4 KB regular / 2 MB huge).
	PageBytes int64
	// Alloc is the first-touch placement (§5.2: ARC/TwoQ use AllocSlow;
	// the all-fast bound uses AllocFast).
	Alloc mem.AllocMode
	// Tracker selects and configures the access-observation facility:
	// PEBS-style hardware sampling (the default), idlepage bitmap scans,
	// or soft-dirty write tracking (internal/tracker).
	Tracker tracker.Config
	// Ops is the number of operations to run.
	Ops int64
	// WindowNs is the latency time-series window.
	WindowNs int64
	// AppCacheModel routes application accesses through the cache
	// hierarchy too, enabling the Fig. 5/13 miss-fraction measurements.
	// It roughly doubles run time, so performance experiments leave it off.
	AppCacheModel bool
	// Ctx, when non-nil, is polled in the op loop; cancellation stops the
	// run promptly with a *CanceledError.
	Ctx context.Context
	// Scratch, when non-nil, supplies reusable buffers (access batches,
	// histograms) so sweeps can recycle allocations across cells. A Scratch
	// must not be shared by concurrent runs.
	Scratch *Scratch
}

// batchOps is the workload fetch batch: large enough to amortize per-batch
// dispatch to nothing, small enough that the access buffer stays
// cache-resident. Results do not depend on it: the reference simulator in
// reference_test.go fetches one op at a time and must agree byte for byte.
const batchOps = 512

// cancelCheckEvery bounds cancellation latency to a few thousand ops
// without putting a context poll on every operation; the countdown is
// consumed at batch granularity.
const cancelCheckEvery = 1024

// tickNs is the policy tick period in virtual ns (cooling scans,
// watermark checks, AutoNUMA address-space scans): 10 virtual ms.
const tickNs int64 = 10_000_000

// batchDrain delivers samples to the policy once this many are buffered
// (Algorithm 1's drain loop).
const batchDrain = 256

// trafficScale converts one simulated access into bytes of memory
// traffic, modeling the 16-thread × memory-level-parallelism traffic of
// the real machine for bandwidth-utilization purposes: ~20 GB/s at 10M
// accesses/s.
const trafficScale float64 = 2048

// faultCostNs is the application-visible cost of one hint fault
// (recency-based systems take these on their critical path).
const faultCostNs float64 = 1000

// llcMissPenaltyNs is the interference each tiering-side LLC miss adds to
// application time (shared-cache and membandwidth contention,
// Observation 3).
const llcMissPenaltyNs float64 = 60

// tieringInterference is the fraction of tiering-thread work (cooling
// sweeps, page scans, migrations) that surfaces as application slowdown
// through shared CPU, cache, and bandwidth resources. The accrued
// interference drains gradually, capped per op.
const tieringInterference float64 = 0.2

// latHistMaxNs bounds the op-latency histograms; an op at or above it
// lands in their top bucket.
const latHistMaxNs = 50_000

// latFlushOps is how many ops a window's uint32 latency counts may take
// before Run folds them early, checked once per batch so none can wrap. A
// variable so a test can make the early fold happen.
var latFlushOps int64 = 1<<32 - 1 - batchOps

// DefaultConfig returns simulation parameters for a workload and policy at
// the given fast-tier capacity.
func DefaultConfig(w trace.Source, p tier.Policy, fastPages int) Config {
	return Config{
		Workload:  w,
		Policy:    p,
		FastPages: fastPages,
		PageBytes: mem.RegularPageBytes,
		Alloc:     mem.AllocFastFirst,
		Tracker:   tracker.DefaultConfig(),
		Ops:       2_000_000,
		WindowNs:  100_000_000, // 100 virtual ms
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Workload == nil || c.Policy == nil {
		return fmt.Errorf("sim: Workload and Policy are required")
	}
	if c.Ops <= 0 {
		return fmt.Errorf("sim: Ops must be positive, got %d", c.Ops)
	}
	if c.WindowNs <= 0 {
		return fmt.Errorf("sim: WindowNs must be positive")
	}
	return nil
}

// Result carries everything the experiment harness reports. Its JSON shape
// (snake_case keys, fixed field set) is part of the public API: sweep
// output is meant to be archived and diffed, so fields must not be renamed
// and new fields should be appended.
type Result struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`

	Ops       int64 `json:"ops"`
	ElapsedNs int64 `json:"elapsed_ns"`
	// MedianLatNs / MeanLatNs / P99LatNs summarize per-op latency.
	MedianLatNs int64   `json:"median_lat_ns"`
	MeanLatNs   float64 `json:"mean_lat_ns"`
	P99LatNs    int64   `json:"p99_lat_ns"`
	// ThroughputMops is operations per virtual second, in millions.
	ThroughputMops float64 `json:"throughput_mops"`
	// Series is the windowed median-latency time series (Fig. 4).
	Series []stats.SeriesPoint `json:"series,omitempty"`
	// SlowSeries tracks the per-window share of accesses served from the
	// slow tier, in tenths of a percent (Mean field; 1000 = all slow).
	// It is the noise-free placement-quality signal behind the latency
	// curves, used for adaptation-time measurement.
	SlowSeries []stats.SeriesPoint `json:"slow_series,omitempty"`
	// ShiftNs is the virtual time of the workload's distribution change
	// (-1 when none fired).
	ShiftNs int64 `json:"shift_ns"`

	// TieringBusyNs is CPU time the tiering thread consumed.
	TieringBusyNs float64 `json:"tiering_busy_ns"`
	// MetadataBytes is the policy's final metadata footprint.
	MetadataBytes int64 `json:"metadata_bytes"`
	// Faults is the number of hint faults delivered.
	Faults uint64 `json:"faults"`

	Mem  mem.Stats  `json:"mem"`
	Pebs pebs.Stats `json:"pebs"`
	// L1 / LLC are cache statistics (only meaningful when the cache models
	// are enabled).
	L1  cachesim.Stats `json:"l1"`
	LLC cachesim.Stats `json:"llc"`
	// FastFinal is the fast-tier occupancy at the end of the run.
	FastFinal int `json:"fast_final"`
	// Tracker names the access tracker behind the Pebs counters when it
	// is not the default PEBS sampler ("idlepage", "softdirty"). Omitted
	// for PEBS, so pre-tracker archived output stays byte-identical.
	Tracker string `json:"tracker,omitempty"`
}

// CanceledError reports a run stopped early by Config.Ctx. It records how
// far the run got; errors.Is(err, context.Canceled) (or DeadlineExceeded)
// sees through it via Unwrap.
type CanceledError struct {
	// OpsDone is the number of operations completed before cancellation.
	OpsDone int64
	// Err is the context's error.
	Err error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled after %d ops: %v", e.OpsDone, e.Err)
}

// Unwrap returns the underlying context error.
func (e *CanceledError) Unwrap() error { return e.Err }

// env implements tier.Env for a run.
type env struct {
	s *simulator
}

func (e *env) Mem() *mem.Memory { return e.s.memory }
func (e *env) Now() int64       { return e.s.now }

func (e *env) Promote(p mem.PageID) error {
	before := e.s.memory.Stats().Promotions
	err := e.s.memory.Promote(p)
	if err == nil && e.s.memory.Stats().Promotions != before {
		e.s.chargeMigration(1)
	}
	return err
}

func (e *env) Demote(p mem.PageID) error {
	before := e.s.memory.Stats().Demotions
	err := e.s.memory.Demote(p)
	if err == nil && e.s.memory.Stats().Demotions != before {
		e.s.chargeMigration(1)
	}
	return err
}

func (e *env) Charge(ns float64) {
	e.s.tieringBusy += ns
	e.s.interference += ns * tieringInterference
}

func (e *env) TouchMeta(off int64) {
	l1Hit, llcHit := e.s.cache.Access(e.s.metaBase+off, cachesim.Tiering)
	if !l1Hit && !llcHit {
		e.s.interference += llcMissPenaltyNs
	}
	e.s.tieringBusy += 2 // the metadata op itself
}

func (e *env) LastAccess(p mem.PageID) int64 { return e.s.lastAccess[p] }

// simulator is the mutable run state.
type simulator struct {
	cfg    Config
	memory *mem.Memory
	cache  *cachesim.Hierarchy

	now          int64
	tieringBusy  float64
	interference float64 // pending app-visible interference ns
	lastAccess   []int64
	metaBase     int64

	// bandwidth accounting per tier for the current utilization window
	winBytes [2]float64
	winStart int64
	util     [2]float64

	faults uint64
}

// chargeMigration accounts one page move: tiering-thread time plus slow-
// tier bandwidth consumption (one side of every move is CXL memory).
func (s *simulator) chargeMigration(pages int) {
	ns := mem.MigrationCostNs(pages, s.cfg.PageBytes)
	s.tieringBusy += ns
	s.interference += ns * tieringInterference
	s.winBytes[mem.Slow] += float64(s.cfg.PageBytes) * float64(pages)
}

// updateUtilization recomputes per-tier bandwidth utilization from the
// bytes moved in the window just ended.
func (s *simulator) updateUtilization() {
	dt := float64(s.now - s.winStart)
	if dt <= 0 {
		return
	}
	for t := 0; t < 2; t++ {
		bw := mem.Bandwidth(mem.Tier(t))
		u := s.winBytes[t] / (bw * dt)
		if u > 1 {
			u = 1
		}
		// Exponential smoothing keeps utilization from oscillating at
		// window boundaries.
		s.util[t] = 0.5*s.util[t] + 0.5*u
		s.winBytes[t] = 0
	}
	s.winStart = s.now
}

// Scratch holds the large per-run buffers — the access batch, the sample
// batch, the latency counts and the latency/series histograms — so
// repeated runs (sweep cells) can reuse them instead of reallocating
// ~300 KB per cell. The zero value is ready to use; a nil *Scratch is also
// valid everywhere and simply allocates fresh. Reuse never leaks state
// between runs: slices are truncated, histograms fully reset (layout
// mismatches allocate anew), latency counts come back zeroed, and
// everything a Result retains (series points) is freshly allocated.
type Scratch struct {
	accs    []trace.Access
	samples []tier.Sample
	ring    []pebs.Sample
	lastAcc []int64
	latCnt  *[latHistMaxNs]uint32
	latHist *stats.Histogram
	series  *stats.TimeSeries
	slow    *stats.TimeSeries
}

// ringBuf returns the pooled sample ring (nil is fine: the tracker then
// allocates; pebs.NewBuffer scrubs a recycled one).
func (sc *Scratch) ringBuf() []pebs.Sample {
	if sc == nil {
		return nil
	}
	return sc.ring
}

// lastAccessBuf returns a zeroed recency array of length n, reusing the
// pooled one when large enough.
func (sc *Scratch) lastAccessBuf(n int) []int64 {
	if sc == nil || cap(sc.lastAcc) < n {
		return make([]int64, n)
	}
	la := sc.lastAcc[:n]
	clear(la)
	return la
}

// latCounts checks out the per-value latency count array, all zero: every
// flush zeroes what it reads, and a run that stops early keeps the array
// rather than return it.
func (sc *Scratch) latCounts() *[latHistMaxNs]uint32 {
	if sc == nil || sc.latCnt == nil {
		return new([latHistMaxNs]uint32)
	}
	c := sc.latCnt
	sc.latCnt = nil
	return c
}

// accessBuf returns an empty access slice with at least the given capacity.
func (sc *Scratch) accessBuf(capacity int) []trace.Access {
	if sc == nil || cap(sc.accs) < capacity {
		return make([]trace.Access, 0, capacity)
	}
	return sc.accs[:0]
}

// sampleBuf returns an empty sample slice with at least the given capacity.
func (sc *Scratch) sampleBuf(capacity int) []tier.Sample {
	if sc == nil || cap(sc.samples) < capacity {
		return make([]tier.Sample, 0, capacity)
	}
	return sc.samples[:0]
}

// histogram returns a reset histogram with the requested layout, reusing
// the pooled one when its layout matches.
func (sc *Scratch) histogram(lo, hi int64, buckets int) *stats.Histogram {
	if sc == nil {
		return stats.NewHistogram(lo, hi, buckets)
	}
	if h := sc.latHist; h != nil {
		if mn, mx, b := h.Layout(); mn == lo && mx == hi && b == buckets {
			h.Reset()
			return h
		}
	}
	sc.latHist = stats.NewHistogram(lo, hi, buckets)
	return sc.latHist
}

// timeSeries returns a reset series with the requested layout; slowSlot
// selects which of the two pooled series (latency vs slow-share) to reuse.
func (sc *Scratch) timeSeries(slowSlot bool, window, lo, hi int64, buckets int) *stats.TimeSeries {
	if sc == nil {
		return stats.NewTimeSeries(window, lo, hi, buckets)
	}
	p := &sc.series
	if slowSlot {
		p = &sc.slow
	}
	if t := *p; t != nil {
		if w, l, h, b := t.Layout(); w == window && l == lo && h == hi && b == buckets {
			t.Reset()
			return t
		}
	}
	*p = stats.NewTimeSeries(window, lo, hi, buckets)
	return *p
}

// release stores the run's buffers back for the next reuse.
func (sc *Scratch) release(accs []trace.Access, samples []tier.Sample, ring []pebs.Sample, lastAcc []int64, latCnt *[latHistMaxNs]uint32) {
	if sc == nil {
		return
	}
	sc.latCnt = latCnt
	sc.accs = accs[:0]
	sc.samples = samples[:0]
	sc.ring = ring
	if lastAcc != nil {
		sc.lastAcc = lastAcc
	}
}

// flushLatencies folds one window's latency counts in [lo, hi] into both
// histograms, one ObserveN per distinct value stamped at a time inside the
// window, and zeroes them. Histograms are multisets, so this is exact.
func flushLatencies(cnt *[latHistMaxNs]uint32, lo, hi int, stamp int64, latHist *stats.Histogram, series *stats.TimeSeries) {
	for v := lo; v <= hi; v++ {
		if c := uint64(cnt[v]); c != 0 {
			latHist.ObserveN(int64(v), c)
			series.ObserveN(stamp, int64(v), c)
			cnt[v] = 0
		}
	}
}

// Run executes the simulation and returns its metrics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Workloads address 4 KB pages; at 2 MB granularity (§4.4) the
	// simulator coalesces 512 consecutive small pages into one huge page,
	// which is exactly what THP-backed tracking and migration see.
	pageShift := uint(0)
	if cfg.PageBytes == mem.HugePageBytes {
		pageShift = 9
	}
	numPages := ((cfg.Workload.NumPages() - 1) >> pageShift) + 1
	memory, err := mem.New(mem.Config{
		NumPages:  numPages,
		FastPages: cfg.FastPages,
		PageBytes: cfg.PageBytes,
		Alloc:     cfg.Alloc,
	})
	if err != nil {
		return nil, err
	}
	// Bitmap trackers size their per-page bits at the simulation's
	// tracking granularity, so huge pages shrink them 512× — exactly what
	// a THP-aware idlepage walk sees.
	trk, err := tracker.New(cfg.Tracker, numPages, cfg.Scratch.ringBuf())
	if err != nil {
		return nil, err
	}
	// Sample-driven policies declare (via tier.RecencyFree) that they never
	// read Env.LastAccess, which lets the loop skip the per-access recency
	// store — a random 8-byte write per touch — and the array entirely.
	_, recencyFree := cfg.Policy.(tier.RecencyFree)
	s := &simulator{
		cfg:    cfg,
		memory: memory,
		cache:  cachesim.NewDefault(),
		// Metadata lives far from application data in the modeled address
		// space so the two contend only through cache capacity.
		metaBase: int64(numPages)*cfg.PageBytes + (1 << 40),
	}
	if !recencyFree {
		s.lastAccess = cfg.Scratch.lastAccessBuf(numPages)
	}
	e := &env{s: s}
	cfg.Policy.Attach(e)
	faultPolicy, _ := cfg.Policy.(tier.FaultDriven)
	// A policy exposing its arming bitmap lets the loop test faults with
	// one inline load instead of a WantsFault interface call per access.
	var faultBits []uint64
	if fb, ok := cfg.Policy.(tier.FaultBitmapped); ok {
		faultBits = fb.FaultBitmap()
	}

	sc := cfg.Scratch
	latHist := sc.histogram(0, latHistMaxNs, 8192)
	series := sc.timeSeries(false, cfg.WindowNs, 0, latHistMaxNs, 4096)
	slowSeries := sc.timeSeries(true, cfg.WindowNs, 0, 1001, 2)
	batch := sc.sampleBuf(batchDrain * 2)

	// Most workloads touch a handful of pages per op; the batch buffer is
	// preallocated for that and grows (amortized, reused across batches and
	// — via Scratch — across runs) for denser ops.
	buf := sc.accessBuf(batchOps * 4)
	src := trace.AsBatchSource(cfg.Workload)
	// A PackedViewSource (in-memory replay) hands out batches as read-only
	// slices of its own packed storage; the loop decodes entries straight
	// into registers, so replay pays neither a copy into the scratch buffer
	// nor an []Access materialization.
	packedSrc, _ := src.(trace.PackedViewSource)

	// Hot-loop state is hoisted into locals: the per-tier access latency is
	// constant between utilization updates (ticks), and the cfg fields and
	// simulator arrays would otherwise be reloaded per access. State a
	// policy callback can observe or mutate (winBytes via migrations) is
	// written back before every OnSamples/Tick/OnFault and reloaded after,
	// so the sequence of float additions — and therefore every rounded
	// intermediate — is identical to the unhoisted loop's.
	// Per-access adds are indexed by tier, not branched on it (the next
	// tier is a coin toss): a window sum gains 0 on the other tier's
	// accesses, which leaves it exactly as it was (no sum is ever -0).
	var lat [2]float64
	lat[mem.Fast] = mem.AccessNs(mem.Fast, s.util[mem.Fast])
	lat[mem.Slow] = mem.AccessNs(mem.Slow, s.util[mem.Slow])
	var toSlow, toFast [2]float64
	toSlow[mem.Slow], toFast[mem.Fast] = trafficScale, trafficScale
	appCache := cfg.AppCacheModel
	nextTick := tickNs
	lastAccess := s.lastAccess
	winSlow, winFast := s.winBytes[mem.Slow], s.winBytes[mem.Fast]
	// The tracker's skip countdown lives in a register here rather than in
	// the tracker, so the between-samples cost is one decrement; the
	// unfired remainder is folded back at the end so access statistics
	// stay exact. PEBS runs at its sampling period; the scanning trackers
	// return period 1 (they must see every access to maintain their
	// bitmaps — their subsampling happens at scan time).
	trackPeriod := trk.Period()
	trackLeft := trackPeriod
	// mayDrain gates the drain check: Pending() can only have grown when
	// the countdown fired (PEBS enqueues on Take) or a tick ran (scans
	// enqueue in Sync), so checking it on other ops would spend an
	// interface call per op to read an unchanged counter. A tick needs no
	// flag of its own: only the scanning trackers enqueue in Sync, and
	// their period is 1, so the countdown fires on every access and the
	// next op sets the flag before its drain check anyway. The flag keeps
	// the drain schedule identical to an every-op check.
	mayDrain := false

	// The slow-tier share series receives only the values 0 and 1000, so a
	// whole window collapses to two counts. The loop accumulates them here
	// and flushes one ObserveN pair per window — identical to per-op
	// observation because a window's histogram is a multiset: the stamp
	// passed at flush lies inside the window (its first observation time),
	// and the window-boundary arithmetic mirrors TimeSeries.advance exactly.
	windowNs := cfg.WindowNs
	var slowC, fastC uint64 // counts accumulated for the open window
	var slowStamp int64     // first observation time of the open window
	slowWinEnd := int64(-1) // exclusive end of the open window; -1 = none

	// Op latencies fold the same way on the grid of op end times: an op
	// below latHistMaxNs bumps its value's count (latLo..latHi spans those
	// since the last flush), the rare op at or above it observes directly.
	latCnt := sc.latCounts()
	latLo, latHi := latHistMaxNs, -1
	var latStamp int64     // first op end time of the open window
	latWinEnd := int64(-1) // exclusive end of the open window; -1 = none
	latFlushOp := int64(0) // op count at the last flush

	cancelLeft := int64(0)

	op := int64(0)
	for op < cfg.Ops {
		if op-latFlushOp > latFlushOps {
			flushLatencies(latCnt, latLo, latHi, latStamp, latHist, series)
			latLo, latHi, latFlushOp = latHistMaxNs, -1, op
		}
		if cfg.Ctx != nil && cancelLeft <= 0 {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, &CanceledError{OpsDone: op, Err: err}
			}
			cancelLeft = cancelCheckEvery
		}
		want := batchOps
		if rem := cfg.Ops - op; rem < int64(want) {
			want = int(rem)
		}
		var pcur []uint32
		cur := buf
		if packedSrc != nil {
			pcur = packedSrc.NextPackedView(want)
		} else {
			buf = src.NextBatch(buf[:0], want)
			cur = buf
		}
		n := len(cur)
		if packedSrc != nil {
			n = len(pcur)
		}
		if n == 0 {
			// The source can produce no more ops — only failed trace
			// replays do this. Account one empty op, as an empty NextOp
			// would be: zero latency observed, clock unchanged.
			latHist.Observe(0)
			series.Observe(s.now, 0)
			op++
			cancelLeft--
			continue
		}
		for i := 0; i < n; {
			opLat := 0.0
			now := s.now // constant until the op's end, like the clock itself
			opStart := i
			var nFast uint64
			for {
				var a trace.Access
				if pcur != nil {
					a = trace.UnpackAccess(pcur[i])
				} else {
					a = cur[i]
				}
				i++
				page := a.Page >> pageShift
				t, ok := memory.TouchTier(page)
				if !ok {
					var err error
					if t, err = memory.Touch(page); err != nil {
						return nil, fmt.Errorf("sim: workload %q touched bad page %d: %w",
							cfg.Workload.Name(), a.Page, err)
					}
				}
				if lastAccess != nil {
					lastAccess[page] = now
				}
				ti := t & 1
				winSlow += toSlow[ti]
				winFast += toFast[ti]
				opLat += lat[ti]
				nFast += uint64(ti)
				if faultPolicy != nil {
					armed := false
					if faultBits != nil {
						armed = faultBits[page>>6]&(1<<(page&63)) != 0
					} else {
						armed = faultPolicy.WantsFault(page)
					}
					if armed {
						// The handler may promote, charging migration bytes,
						// so the hoisted window counters sync around it.
						s.winBytes[mem.Slow], s.winBytes[mem.Fast] = winSlow, winFast
						faultPolicy.OnFault(page, t)
						winSlow, winFast = s.winBytes[mem.Slow], s.winBytes[mem.Fast]
						s.faults++
						opLat += faultCostNs
					}
				}
				if trackLeft--; trackLeft <= 0 {
					trk.Observe(page, t, now, a.Write)
					trackLeft = trackPeriod
					mayDrain = true
				}
				if appCache {
					// Within-page line offset: hash-derived so hot pages span
					// multiple lines, as real objects do. Use the 4 KB page id
					// so cache behaviour is granularity-independent.
					off := int64(xrand.Hash64(uint64(a.Page)^uint64(op)) & 0xfc0)
					s.cache.Access(int64(a.Page)*mem.RegularPageBytes+off, cachesim.App)
				}
				if a.EndOp {
					break
				}
			}
			// Slow-tier share bookkeeping: flush the previous window when
			// this op's timestamp leaves it, then accumulate. All of an
			// op's accesses share one timestamp, so per-op is exact.
			if now >= slowWinEnd {
				if slowC != 0 {
					slowSeries.ObserveN(slowStamp, 1000, slowC)
					slowC = 0
				}
				if fastC != 0 {
					slowSeries.ObserveN(slowStamp, 0, fastC)
					fastC = 0
				}
				slowStamp = now
				slowWinEnd = now - now%windowNs + windowNs
			}
			slowC += uint64(i-opStart) - nFast
			fastC += nFast
			// Interference from tiering work drains into application time
			// at a bounded per-op rate, modeling shared-resource contention
			// without attributing a whole cooling sweep to a single unlucky
			// op.
			if s.interference > 0 {
				take := opLat * 0.5
				if take > s.interference {
					take = s.interference
				}
				opLat += take
				s.interference -= take
			}
			v := int64(opLat)
			s.now += v
			if s.now >= latWinEnd {
				flushLatencies(latCnt, latLo, latHi, latStamp, latHist, series)
				latLo, latHi, latFlushOp = latHistMaxNs, -1, op
				latStamp = s.now
				latWinEnd = s.now - s.now%windowNs + windowNs
			}
			if uint64(v) < latHistMaxNs {
				latCnt[v]++
				latLo, latHi = min(latLo, int(v)), max(latHi, int(v))
			} else {
				latHist.Observe(v)
				series.Observe(s.now, v)
			}
			op++
			cancelLeft--

			if mayDrain {
				mayDrain = false
				if trk.Pending() >= batchDrain {
					// Sample handling can migrate pages, charging window
					// bytes.
					s.winBytes[mem.Slow], s.winBytes[mem.Fast] = winSlow, winFast
					batch = trk.Drain(batch[:0], 0)
					cfg.Policy.OnSamples(batch)
					winSlow, winFast = s.winBytes[mem.Slow], s.winBytes[mem.Fast]
				}
			}
			if s.now >= nextTick {
				s.winBytes[mem.Slow], s.winBytes[mem.Fast] = winSlow, winFast
				for s.now >= nextTick {
					// Periodic tracker work (bitmap scan-and-clear) runs on
					// the tiering thread at tick boundaries, like memtierd
					// scheduling its scans; its cost surfaces through the
					// same busy-time and interference accounting as policy
					// work. The samples it enqueues are delivered at the
					// next drain check.
					if cost := trk.Sync(s.now); cost != 0 {
						s.tieringBusy += cost
						s.interference += cost * tieringInterference
					}
					cfg.Policy.Tick()
					cfg.Workload.AdvanceTime(s.now)
					s.updateUtilization()
					nextTick += tickNs
				}
				winSlow, winFast = s.winBytes[mem.Slow], s.winBytes[mem.Fast]
				// Utilization moved; refresh the cached tier latencies.
				lat[mem.Fast] = mem.AccessNs(mem.Fast, s.util[mem.Fast])
				lat[mem.Slow] = mem.AccessNs(mem.Slow, s.util[mem.Slow])
			}
		}
	}

	s.winBytes[mem.Slow], s.winBytes[mem.Fast] = winSlow, winFast
	// Flush the final windows before the series are read.
	flushLatencies(latCnt, latLo, latHi, latStamp, latHist, series)
	if slowC != 0 {
		slowSeries.ObserveN(slowStamp, 1000, slowC)
	}
	if fastC != 0 {
		slowSeries.ObserveN(slowStamp, 0, fastC)
	}
	trk.ObserveSkipped(trackPeriod - trackLeft)
	sc.release(buf, batch, trk.Ring(), s.lastAccess, latCnt)

	// A final clock notification marks the end-of-run virtual time for
	// stream observers — a trace capture's last time mark records the
	// run's full extent. Sources see it as one more tick; none change
	// behaviour after their last op.
	cfg.Workload.AdvanceTime(s.now)

	res := &Result{
		Workload:       cfg.Workload.Name(),
		Policy:         cfg.Policy.Name(),
		Ops:            cfg.Ops,
		ElapsedNs:      s.now,
		MedianLatNs:    latHist.Median(),
		MeanLatNs:      latHist.Mean(),
		P99LatNs:       latHist.Quantile(0.99),
		ThroughputMops: float64(cfg.Ops) / float64(s.now) * 1e3,
		Series:         series.Points(),
		SlowSeries:     slowSeries.Points(),
		ShiftNs:        -1,
		TieringBusyNs:  s.tieringBusy,
		MetadataBytes:  cfg.Policy.MetadataBytes(),
		Faults:         s.faults,
		Mem:            memory.Stats(),
		Pebs:           trk.Stats(),
		L1:             s.cache.L1(),
		LLC:            s.cache.LLC(),
		FastFinal:      memory.FastUsed(),
	}
	if k := trk.Kind(); k != tracker.KindPEBS {
		res.Tracker = k
	}
	if ss, ok := cfg.Workload.(trace.ShiftSource); ok {
		res.ShiftNs = ss.ShiftTime()
	}
	return res, nil
}

// AdaptationNs measures how long the run took to return to within tol of
// the steady-state latency after the workload's distribution shift
// (Table 3's metric). It uses the windowed mean latency: the shift displaces
// the slow-tier tail of the distribution, which the mean tracks directly.
// steadyWindows is how many trailing windows define steady state. The
// boolean is false when no shift fired or the run never converged.
func (r *Result) AdaptationNs(steadyWindows int, tol float64) (int64, bool) {
	if r.ShiftNs < 0 {
		return 0, false
	}
	smoothed := stats.Smooth(r.SlowSeries, 3)
	steady := stats.MeanSteadyState(smoothed, steadyWindows)
	at, ok := stats.MeanAdaptTime(smoothed, r.ShiftNs, steady, tol)
	if !ok {
		return 0, false
	}
	return at - r.ShiftNs, true
}
