package sim

// The reference simulator: Run's model written the obvious way, kept as the
// one differential contract for the optimized loop in sim.go. It shares no
// unexported code with sim.go — it is its own tier.Env and builds its own
// model state — and it takes none of Run's fast paths: one NextOp per op,
// every recency stamp stored, WantsFault asked on every access, the sampling
// period counted per access, the drain condition checked after every op, the
// slow-tier share observed access by access, each op's latency observed as
// it ends, tiers branched on, nothing pooled. Every fast path (batched and
// packed fetches, the hoisted countdown and its end-of-run fold-back,
// mayDrain, recency elision, the inlined fault bitmap, the per-window
// ObserveN folds of the slow share and of latency counts, tier-indexed
// accounting, Scratch) is correct exactly while Run marshals
// to the bytes this produces. It also hosts the model invariants: after
// every tick and at the end of the run it checks them and fails the run.

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/tracker"
	"repro/internal/xrand"
)

// refSim is the reference's run state and its tier.Env.
type refSim struct {
	cfg      Config
	mem      *mem.Memory
	cache    *cachesim.Hierarchy
	now      int64
	busy     float64    // tiering-thread ns
	owed     float64    // interference not yet surfaced in application time
	last     []int64    // per-page time of the latest access
	metaBase int64      // policy metadata's address, far from application data
	bytes    [2]float64 // per-tier traffic since winStart
	winStart int64
	util     [2]float64 // smoothed per-tier bandwidth utilization
}

func (r *refSim) Mem() *mem.Memory              { return r.mem }
func (r *refSim) Now() int64                    { return r.now }
func (r *refSim) LastAccess(p mem.PageID) int64 { return r.last[p] }
func (r *refSim) Promote(p mem.PageID) error    { return r.migrate(r.mem.Promote, p) }
func (r *refSim) Demote(p mem.PageID) error     { return r.migrate(r.mem.Demote, p) }

func (r *refSim) Charge(ns float64) {
	r.busy += ns
	r.owed += ns * tieringInterference
}

func (r *refSim) TouchMeta(off int64) {
	if l1, llc := r.cache.Access(r.metaBase+off, cachesim.Tiering); !l1 && !llc {
		r.owed += llcMissPenaltyNs
	}
	r.busy += 2
}

// migrate applies a page move and, when it changed the placement, charges
// its cost and one page of slow-tier traffic.
func (r *refSim) migrate(move func(mem.PageID) error, p mem.PageID) error {
	before := r.mem.Stats()
	err := move(p)
	if err == nil && r.mem.Stats() != before {
		r.Charge(mem.MigrationCostNs(1, r.cfg.PageBytes))
		r.bytes[mem.Slow] += float64(r.cfg.PageBytes)
	}
	return err
}

// closeWindow ends a utilization window: the smoothed utilization of each
// tier moves halfway to the window's measured one.
func (r *refSim) closeWindow() {
	dt := float64(r.now - r.winStart)
	if dt <= 0 {
		return
	}
	for t := range r.util {
		u := min(r.bytes[t]/(mem.Bandwidth(mem.Tier(t))*dt), 1)
		r.util[t] = 0.5*r.util[t] + 0.5*u
		r.bytes[t] = 0
	}
	r.winStart = r.now
}

// check asserts the model invariants: memory's own consistency (each page
// in one tier, fast occupancy within capacity), occupancy equal to what
// allocations and migrations put there, and every sample taken accounted
// for as dropped, drained or still pending.
func (r *refSim) check(trk tracker.Tracker) error {
	if err := r.mem.CheckInvariants(); err != nil {
		return err
	}
	if ms := r.mem.Stats(); uint64(r.mem.FastUsed()) != ms.FastAllocs+ms.Promotions-ms.Demotions {
		return fmt.Errorf("fast tier holds %d pages; allocations and migrations put %d+%d-%d there",
			r.mem.FastUsed(), ms.FastAllocs, ms.Promotions, ms.Demotions)
	}
	if ts := trk.Stats(); ts.Sampled != ts.Dropped+ts.Drained+uint64(trk.Pending()) {
		return fmt.Errorf("tracker sampled %d; dropped %d + drained %d + pending %d",
			ts.Sampled, ts.Dropped, ts.Drained, trk.Pending())
	}
	return nil
}

// reference simulates cfg the naive way. It ignores Ctx and Scratch, which
// change how Run executes but never what it returns.
func reference(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shift := uint(0)
	if cfg.PageBytes == mem.HugePageBytes {
		shift = 9 // a huge page is 512 consecutive small ones
	}
	pages := (cfg.Workload.NumPages()-1)>>shift + 1
	m, err := mem.New(mem.Config{NumPages: pages, FastPages: cfg.FastPages, PageBytes: cfg.PageBytes, Alloc: cfg.Alloc})
	if err != nil {
		return nil, err
	}
	trk, err := tracker.New(cfg.Tracker, pages, nil)
	if err != nil {
		return nil, err
	}
	r := &refSim{cfg: cfg, mem: m, cache: cachesim.NewDefault(), last: make([]int64, pages),
		metaBase: int64(pages)*cfg.PageBytes + 1<<40}
	cfg.Policy.Attach(r)
	faulting, _ := cfg.Policy.(tier.FaultDriven)
	lat := stats.NewHistogram(0, latHistMaxNs, 8192)
	series := stats.NewTimeSeries(cfg.WindowNs, 0, latHistMaxNs, 4096)
	slowShare := stats.NewTimeSeries(cfg.WindowNs, 0, 1001, 2)
	period := uint64(trk.Period())
	var touched, faults uint64
	var accs []trace.Access
	var samples []tier.Sample
	nextTick := tickNs
	for op := int64(0); op < cfg.Ops; op++ {
		accs = cfg.Workload.NextOp(accs[:0])
		if len(accs) == 0 { // the source ran dry: an empty op, clock unchanged
			lat.Observe(0)
			series.Observe(r.now, 0)
			continue
		}
		start, opNs := r.now, 0.0
		for _, a := range accs {
			page := a.Page >> shift
			t, err := m.Touch(page)
			if err != nil {
				return nil, fmt.Errorf("reference: page %d: %w", a.Page, err)
			}
			r.last[page] = start
			r.bytes[t] += trafficScale
			opNs += mem.AccessNs(t, r.util[t])
			if t == mem.Slow {
				slowShare.Observe(start, 1000)
			} else {
				slowShare.Observe(start, 0)
			}
			if faulting != nil && faulting.WantsFault(page) {
				faulting.OnFault(page, t)
				faults++
				opNs += faultCostNs
			}
			if touched++; touched%period == 0 {
				trk.Observe(page, t, start, a.Write)
			}
			if cfg.AppCacheModel {
				off := int64(xrand.Hash64(uint64(a.Page)^uint64(op)) & 0xfc0)
				r.cache.Access(int64(a.Page)*mem.RegularPageBytes+off, cachesim.App)
			}
		}
		if r.owed > 0 { // interference surfaces at up to half the op's own time
			take := min(opNs*0.5, r.owed)
			opNs += take
			r.owed -= take
		}
		r.now += int64(opNs)
		lat.Observe(int64(opNs))
		series.Observe(r.now, int64(opNs))
		if trk.Pending() >= batchDrain {
			samples = trk.Drain(samples[:0], 0)
			cfg.Policy.OnSamples(samples)
		}
		for ; r.now >= nextTick; nextTick += tickNs {
			r.Charge(trk.Sync(r.now))
			cfg.Policy.Tick()
			cfg.Workload.AdvanceTime(r.now)
			r.closeWindow()
			if err := r.check(trk); err != nil {
				return nil, fmt.Errorf("reference: after the tick at %d ns: %w", r.now, err)
			}
		}
	}
	trk.ObserveSkipped(int(touched % period))
	cfg.Workload.AdvanceTime(r.now)
	if err := r.check(trk); err != nil {
		return nil, fmt.Errorf("reference: at the end: %w", err)
	}
	if got := trk.Stats().Accesses; got != touched {
		return nil, fmt.Errorf("reference: tracker accounts %d accesses, %d were touched", got, touched)
	}
	res := &Result{
		Workload:       cfg.Workload.Name(),
		Policy:         cfg.Policy.Name(),
		Ops:            cfg.Ops,
		ElapsedNs:      r.now,
		MedianLatNs:    lat.Median(),
		MeanLatNs:      lat.Mean(),
		P99LatNs:       lat.Quantile(0.99),
		ThroughputMops: float64(cfg.Ops) / float64(r.now) * 1e3,
		Series:         series.Points(),
		SlowSeries:     slowShare.Points(),
		ShiftNs:        -1,
		TieringBusyNs:  r.busy,
		MetadataBytes:  cfg.Policy.MetadataBytes(),
		Faults:         faults,
		Mem:            m.Stats(),
		Pebs:           trk.Stats(),
		L1:             r.cache.L1(),
		LLC:            r.cache.LLC(),
		FastFinal:      m.FastUsed(),
	}
	if k := trk.Kind(); k != tracker.KindPEBS {
		res.Tracker = k
	}
	if ss, ok := cfg.Workload.(trace.ShiftSource); ok {
		res.ShiftNs = ss.ShiftTime()
	}
	return res, nil
}
