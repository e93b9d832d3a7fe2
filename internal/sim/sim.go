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
// without putting a context poll on every operation; the op count is
// checked at batch granularity.
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

	// The kernel's state (see kernel), which Run reads and writes between
	// kernel calls.
	i            int        // the next access in the batch
	state        []uint8    // memory's page states (mem.Memory.PageStates)
	faultBits    []uint64   // armed pages: a fault-driven policy's bitmap
	wordShift    uint       // packed entry to simulated page id
	lat          [2]float64 // access latency per tier at the current utilization
	op           int64      // ops completed
	opLat        float64    // the open op's latency so far
	v            int64      // latency of the op the kernel stopped at the end of
	fastAccs     uint64     // accesses served by the fast tier
	stopAt       int64      // the kernel stops at the first op end at or after this time
	latCnt       *[latHistMaxNs]uint32
	latLo, latHi int // latCnt's nonzero values lie in [latLo, latHi]
	// The tracker countdown, the ns samples it took that Run has not yet
	// delivered, and how many it may take before Pending can reach
	// batchDrain; the na application cache accesses not yet fed to cache.
	period, left, ns, room, na int
	appCache                   bool
	runBufs
}

// runBufs are a run's reusable buffers, which Scratch pools. Run writes
// every entry it reads.
type runBufs struct {
	accs     []trace.Access // the live batch
	packed   []uint64       // the live batch, packed
	samples  []sample       // the kernel's samples
	drained  []tier.Sample  // the drained samples
	appAddrs []int64        // the kernel's cache lines
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

// Scratch holds the large per-run buffers — the access and sample
// batches, the latency counts and the latency/series histograms — so
// repeated runs (sweep cells) can reuse them instead of reallocating
// ~300 KB per cell. The zero value is ready to use; a nil *Scratch is also
// valid everywhere and simply allocates fresh. Reuse never leaks state
// between runs: slices are truncated, histograms fully reset (layout
// mismatches allocate anew), latency counts come back zeroed, and
// everything a Result retains (series points) is freshly allocated.
type Scratch struct {
	bufs    runBufs
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
func (sc *Scratch) release(s *simulator, ring []pebs.Sample) {
	if sc == nil {
		return
	}
	sc.latCnt, sc.bufs, sc.ring = s.latCnt, s.runBufs, ring
	if s.lastAccess != nil {
		sc.lastAcc = s.lastAccess
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

// appAddr is the application cache-line address of an access to 4 KB page
// page in op op. The line offset within the page is hash-derived, so hot
// pages span several lines as real objects do; the 4 KB page id keeps
// cache behaviour independent of the simulated page size.
func appAddr(page uint64, op int64) int64 {
	return int64(page)*mem.RegularPageBytes + int64(xrand.Hash64(page^uint64(op))&0xfc0)
}

// pack appends batch to dst as packed stream entries (trace.UnpackAccess's
// encoding) widened to 64 bits, so that any 4 KB page id of a page space
// mem can hold fits. It stops at the first access to a simulated page
// (page>>shift) of n or more, a bad page, and returns its index, or -1.
func pack(dst []uint64, batch []trace.Access, shift uint, n mem.PageID) ([]uint64, int) {
	for i, a := range batch {
		if a.Page>>shift >= n {
			return dst, i
		}
		w := uint64(a.Page) << 2
		if a.Write {
			w |= 1
		}
		if a.EndOp {
			w |= 2
		}
		dst = append(dst, w)
	}
	return dst, -1
}

// surface drains interference from tiering work into an op's latency, up
// to half the op's own time, modeling shared-resource contention without
// attributing a whole cooling sweep to a single unlucky op.
func surface(opLat, owed float64) (float64, float64) {
	if owed > 0 {
		take := opLat * 0.5
		if take > owed {
			take = owed
		}
		opLat += take
		owed -= take
	}
	return opLat, owed
}

// sample is an access the tracker countdown picked: its op's start time
// and its packed entry.
type sample struct {
	now int64
	w   uint64
}

// Why the kernel stopped.
const (
	exitTouch = iota // the returned entry, words[s.i], is a first touch or a bad page
	exitFault        // the returned entry, words[s.i-1], hit an armed bit: its fault, sample, cache access and op end are Run's
	exitOpEnd        // an op ended (interference and clock done, latency v unrecorded) with work for Run
)

// kernel runs the batch words from s.i through the common case of an
// access and of an op end, and stops where one needs a call. It makes no
// calls, so its state stays in registers: Go saves none across a call. The
// common access is to an allocated, unarmed page; the common op end
// records its latency in latCnt and opens the next op. Run handles
// whatever stopped the kernel in the order the access or op end would
// have, then re-enters. A packed view (uint32) and a packed live batch
// (uint64) carry 4 KB page ids in the same encoding, so one body serves
// both.
//
// Three kinds of per-access work are only counted or buffered here, each
// exact for its own reason:
//   - Window bytes: fastAccs and the access count stand in for the
//     per-tier traffic sums, which Run folds in before a tick reads them.
//     Every addend (trafficScale, a migration's pages) is a multiple of
//     2048, and no sum in one tick window reaches 2^53, so the float sums
//     are exact in any order.
//   - Samples: Observe only appends a sample stamped with its op's start
//     time, and only op ends read the tracker (Pending, Drain, Sync), so
//     Run delivers them in access order when the kernel stops at an op end
//     or a fault. Observe adds at most one sample to Pending, so no drain
//     can be due before room samples are taken.
//   - Application cache accesses: hits never feed latency, and the tiering
//     side (TouchMeta) reaches the cache only from callbacks, which run
//     after Run has fed it the buffered addresses.
func kernel[W uint32 | uint64](s *simulator, words []W) (why int, w uint64) {
	i, state, sh := s.i, s.state, s.wordShift&63
	opLat, fastAccs, left := s.opLat, s.fastAccs, s.left
	// Only what every access uses is held in locals, so that none spills;
	// the rest is read through s. The masked shift is one instruction.
	rare := s.lastAccess != nil || s.faultBits != nil || s.appCache
	why = exitOpEnd
	for {
		w = uint64(words[i])
		page := mem.PageID(w >> sh)
		if page >= mem.PageID(len(state)) || state[page] == 0 {
			why = exitTouch
			break
		}
		ti := (uint64(state[page]) - 1) & 1
		i++
		fastAccs += ti
		opLat += s.lat[ti]
		if rare {
			if s.lastAccess != nil {
				s.lastAccess[page] = s.now
			}
			if s.faultBits != nil && s.faultBits[page>>6]&(1<<(page&63)) != 0 {
				why = exitFault
				break
			}
			if s.appCache {
				s.appAddrs[s.na] = appAddr(w>>2, s.op)
				s.na++
			}
		}
		if left--; left <= 0 {
			s.samples[s.ns] = sample{s.now, w}
			s.ns++
			left = s.period
		}
		if w&2 == 0 {
			continue
		}
		opLat, s.interference = surface(opLat, s.interference)
		v := int64(opLat)
		s.now += v
		if s.now >= s.stopAt || uint64(v) >= latHistMaxNs || s.ns >= s.room || i == len(words) {
			s.v = v
			break
		}
		s.latCnt[v]++
		s.latLo, s.latHi = min(s.latLo, int(v)), max(s.latHi, int(v))
		s.op++
		opLat = 0
	}
	s.i, s.opLat, s.fastAccs, s.left = i, opLat, fastAccs, left
	return why, w
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
	// The tracker countdown's unfired remainder is folded back at the end.
	// The scanning trackers' period is 1: they subsample at scan time.
	s := &simulator{
		cfg:    cfg,
		memory: memory,
		cache:  cachesim.NewDefault(),
		// Metadata lives far from application data in the modeled address
		// space so the two contend only through cache capacity.
		metaBase:  int64(numPages)*cfg.PageBytes + (1 << 40),
		state:     memory.PageStates(),
		wordShift: 2 + pageShift,
		appCache:  cfg.AppCacheModel,
		period:    trk.Period(),
		left:      trk.Period(),
		latLo:     latHistMaxNs,
		latHi:     -1,
		room:      batchDrain,
	}
	if cfg.Scratch != nil {
		s.runBufs = cfg.Scratch.bufs
	}
	// Sample-driven policies declare (via tier.RecencyFree) that they never
	// read Env.LastAccess, which lets the kernel skip the per-access recency
	// store — a random 8-byte write per touch — and the array entirely.
	if _, recencyFree := cfg.Policy.(tier.RecencyFree); !recencyFree {
		s.lastAccess = cfg.Scratch.lastAccessBuf(numPages)
	}
	e := &env{s: s}
	cfg.Policy.Attach(e)
	// A fault-driven policy arms its faults in a bitmap the kernel tests
	// with one inline load per access.
	faultPolicy, _ := cfg.Policy.(tier.FaultBitmapped)
	if faultPolicy != nil {
		s.faultBits = faultPolicy.FaultBitmap()
	}
	if _, ok := cfg.Policy.(tier.FaultDriven); ok && len(s.faultBits) < (numPages+63)/64 {
		return nil, fmt.Errorf("sim: fault-driven policy %q arms %d bitmap words for %d pages; it must be a tier.FaultBitmapped with at least %d",
			cfg.Policy.Name(), len(s.faultBits), numPages, (numPages+63)/64)
	}

	sc := cfg.Scratch
	latHist := sc.histogram(0, latHistMaxNs, 8192)
	series := sc.timeSeries(false, cfg.WindowNs, 0, latHistMaxNs, 4096)
	slowSeries := sc.timeSeries(true, cfg.WindowNs, 0, 1001, 2)

	src := trace.AsBatchSource(cfg.Workload)
	// A PackedViewSource (in-memory replay, v2 trace files) hands out
	// batches as read-only slices of its own packed storage. Other sources'
	// batches are packed into the same encoding first, in 64-bit words.
	packedSrc, _ := src.(trace.PackedViewSource)

	s.lat[mem.Fast] = mem.AccessNs(mem.Fast, s.util[mem.Fast])
	s.lat[mem.Slow] = mem.AccessNs(mem.Slow, s.util[mem.Slow])
	nextTick := tickNs
	// accs counts the accesses of earlier batches; with s.i and s.fastAccs
	// it gives the run's per-tier access totals.
	var accs uint64
	tierAccs := func() (slow, fast uint64) { return accs + uint64(s.i) - s.fastAccs, s.fastAccs }
	var wSlow, wFast uint64 // totals at the last window-bytes fold

	// Both series fold a window into counts flushed with one stamp inside
	// it — exact, as a window's histogram is a multiset and the boundary
	// arithmetic mirrors TimeSeries.advance. A window rolls over at the
	// first op end at or past its end: that op's latency opens the new
	// latency window; its accesses, stamped with its start, close the
	// slow-share one. An op below latHistMaxNs bumps its value's count
	// (latLo..latHi spans those since the last flush), the rare op at or
	// above it observes directly; the slow-share series receives only the
	// values 0 and 1000, so it folds into the two access totals.
	var stamp int64               // first op end time of the open window, 0 for the first
	winEnd := cfg.WindowNs        // exclusive end of the open window
	var slowSnap, fastSnap uint64 // totals at the last flush
	latFlushOp := int64(0)        // op count at the last flush
	s.latCnt = sc.latCounts()
	flush := func() {
		flushLatencies(s.latCnt, s.latLo, s.latHi, stamp, latHist, series)
		s.latLo, s.latHi, latFlushOp = latHistMaxNs, -1, s.op
		slow, fast := tierAccs()
		if slow != slowSnap {
			slowSeries.ObserveN(stamp, 1000, slow-slowSnap)
		}
		if fast != fastSnap {
			slowSeries.ObserveN(stamp, 0, fast-fastSnap)
		}
		slowSnap, fastSnap = slow, fast
	}

	cancelAt := int64(0)
	for s.op < cfg.Ops {
		if s.op-latFlushOp > latFlushOps {
			flush()
		}
		if cfg.Ctx != nil && s.op >= cancelAt {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, &CanceledError{OpsDone: s.op, Err: err}
			}
			cancelAt = s.op + cancelCheckEvery
		}
		want := int(min(batchOps, cfg.Ops-s.op))
		var view []uint32
		n := 0
		if packedSrc != nil {
			view = packedSrc.NextPackedView(want)
			n = len(view)
		} else {
			s.accs = src.NextBatch(s.accs[:0], want)
			var bad int
			if s.packed, bad = pack(s.packed[:0], s.accs, pageShift, mem.PageID(numPages)); bad >= 0 {
				return nil, fmt.Errorf("sim: workload %q touched bad page %d: %w", cfg.Workload.Name(), s.accs[bad].Page, mem.ErrBadPage)
			}
			n = len(s.packed)
		}
		if n == 0 {
			// The source can produce no more ops — only failed trace
			// replays do this. Account one empty op, as an empty NextOp
			// would be: zero latency observed, clock unchanged.
			latHist.Observe(0)
			series.Observe(s.now, 0)
			s.op++
			continue
		}
		// The kernel stops at the batch's end, so its buffers need room for
		// one batch: a sample per period accesses, an address per access.
		if k := n/s.period + 1; len(s.samples) < k {
			s.samples = make([]sample, 2*k)
		}
		if s.appCache && len(s.appAddrs) < n {
			s.appAddrs = make([]int64, 2*n)
		}
		for s.i < n {
			why, w := exitOpEnd, uint64(0)
			if view != nil {
				why, w = kernel(s, view)
			} else {
				why, w = kernel(s, s.packed)
			}
			if why == exitTouch {
				if _, err := memory.Touch(mem.PageID(w >> s.wordShift)); err != nil {
					return nil, fmt.Errorf("sim: workload %q touched bad page %d: %w", cfg.Workload.Name(), w>>2, err)
				}
				continue
			}
			// What the kernel buffered goes out before any callback: the
			// samples (their pages' tiers are still the ones that served
			// them) and the application cache accesses.
			for _, x := range s.samples[:s.ns] {
				page := mem.PageID(x.w >> s.wordShift)
				trk.Observe(page, memory.TierOf(page), x.now, x.w&1 != 0)
			}
			for _, a := range s.appAddrs[:s.na] {
				s.cache.Access(a, cachesim.App)
			}
			s.ns, s.na = 0, 0
			if why == exitFault {
				// The access's remaining work, in order: the fault, whose
				// handler may migrate (charging window bytes and
				// interference), then the sample, then the cache access.
				page := mem.PageID(w >> s.wordShift)
				t := memory.TierOf(page)
				faultPolicy.OnFault(page, t)
				s.faults++
				s.opLat += faultCostNs
				if s.left--; s.left <= 0 {
					trk.Observe(page, t, s.now, w&1 != 0)
					s.left = s.period
				}
				if s.appCache {
					s.cache.Access(appAddr(w>>2, s.op), cachesim.App)
				}
				s.room = batchDrain - trk.Pending()
				if w&2 == 0 {
					continue
				}
				s.opLat, s.interference = surface(s.opLat, s.interference)
				s.v = int64(s.opLat)
				s.now += s.v
			}

			// The op's end, in full.
			if s.now >= winEnd {
				flush()
				stamp, winEnd = s.now, s.now-s.now%cfg.WindowNs+cfg.WindowNs
			}
			if v := s.v; uint64(v) < latHistMaxNs {
				s.latCnt[v]++
				s.latLo, s.latHi = min(s.latLo, int(v)), max(s.latHi, int(v))
			} else {
				latHist.Observe(v)
				series.Observe(s.now, v)
			}
			s.op++
			// The drain check, at every op end the kernel stops at, drains
			// where a check after each sampling op would: the kernel stops
			// at the op whose samples may bring Pending to batchDrain, and
			// an op that samples nothing cannot, unless a scanning tracker's
			// Sync did, and those sample every access.
			if trk.Pending() >= batchDrain {
				// Sample handling can migrate pages, charging window
				// bytes and interference.
				s.drained = trk.Drain(s.drained[:0], 0)
				cfg.Policy.OnSamples(s.drained)
			}
			if s.now >= nextTick {
				slow, fast := tierAccs()
				s.winBytes[mem.Slow] += float64(slow-wSlow) * trafficScale
				s.winBytes[mem.Fast] += float64(fast-wFast) * trafficScale
				wSlow, wFast = slow, fast
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
				// Utilization moved; refresh the cached tier latencies.
				s.lat[mem.Fast] = mem.AccessNs(mem.Fast, s.util[mem.Fast])
				s.lat[mem.Slow] = mem.AccessNs(mem.Slow, s.util[mem.Slow])
			}
			s.opLat = 0
			s.stopAt = min(winEnd, nextTick)
			s.room = batchDrain - trk.Pending()
		}
		accs, s.i = accs+uint64(s.i), 0
	}

	// Flush the final windows before the series are read.
	flush()
	trk.ObserveSkipped(s.period - s.left)
	sc.release(s, trk.Ring())

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

// AdaptationNs measures how long the run took to return to its
// steady-state latency after the workload's distribution shift (Table 3's
// metric, by stats.AdaptTime's rule). It uses the windowed mean latency:
// the shift displaces the slow-tier tail of the distribution, which the
// mean tracks directly. The boolean is false when no shift fired or the
// run never converged.
func (r *Result) AdaptationNs() (int64, bool) {
	if r.ShiftNs < 0 {
		return 0, false
	}
	at, ok := stats.AdaptTime(r.SlowSeries, r.ShiftNs)
	if !ok {
		return 0, false
	}
	return at - r.ShiftNs, true
}
