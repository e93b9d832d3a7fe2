package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	hybridtier "repro"
	"repro/internal/cachesim"
	"repro/internal/cbf"
	"repro/internal/jobs"
	"repro/internal/mem"
	"repro/internal/pebs"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/tracker"
	"repro/internal/xrand"
)

// Drives measure the layers a cell span cannot see into — everything
// sim.Run calls inline — by feeding each one, alone, the first accesses of
// the workload's own stream through its public functions. A drive's number
// is that layer's cost per event in isolation (warm caches, no
// interleaving), which bounds its share of sim's self time from below.

// driveAccesses is how much of the stream a drive replays.
const driveAccesses = 1_000_000

// drivePasses is how often each drive repeats; the median pass is reported.
const drivePasses = 3

// medianPass runs pass drivePasses times and returns the median of the
// durations it reports. pass times its own hot region, so set-up inside it
// (fresh layer state per pass) stays off the clock.
func medianPass(pass func() time.Duration) time.Duration {
	ds := make([]float64, drivePasses)
	for i := range ds {
		ds[i] = float64(pass())
	}
	return time.Duration(median(ds))
}

// buildSource constructs the generator a cell of the canonical spec runs on.
func buildSource(canon hybridtier.SweepSpec, seed uint64) (trace.Source, error) {
	var p registry.WorkloadParams
	if canon.Params != nil {
		p = *canon.Params
	}
	p.Seed = seed
	return registry.Workloads.New(canon.Workload, p)
}

// captureStream draws whole ops from the workload of j's first cell until
// driveAccesses accesses are in hand.
func captureStream(z sizing, j job) (accs []trace.Access, numPages int, err error) {
	canon, err := j.spec.Canonical()
	if err != nil {
		return nil, 0, err
	}
	src, err := buildSource(canon, canon.Seeds[0])
	if err != nil {
		return nil, 0, err
	}
	if c, ok := src.(interface{ Close() error }); ok {
		defer c.Close()
	}
	limit := driveAccesses
	if z.smoke {
		limit = 20_000
	}
	bs := trace.AsBatchSource(src)
	for len(accs) < limit {
		n := len(accs)
		if accs = bs.NextBatch(accs, 512); len(accs) == n {
			break
		}
	}
	if len(accs) == 0 {
		return nil, 0, fmt.Errorf("%s: workload produced no accesses", j.name)
	}
	return accs, src.NumPages(), nil
}

// driveSim runs the per-access drives: mem, tracker (all three kinds),
// cachesim, stats, cbf, and the v2 trace-file writer and reader.
func (rc *runCtx) driveSim(j job, ly layers) error {
	accs, numPages, err := captureStream(rc.z, j)
	if err != nil {
		return err
	}
	n := float64(len(accs))
	perAccess := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }

	// mem: the touch the op loop inlines, at the default 1:8 split. The
	// serving tier of each access feeds the tracker drive.
	tiers := make([]mem.Tier, len(accs))
	var fast int
	ly["mem.ns_per_touch"] = perAccess(medianPass(func() time.Duration {
		memory, merr := mem.New(mem.Config{
			NumPages: numPages, FastPages: max(numPages/9, 16),
			PageBytes: mem.RegularPageBytes, Alloc: mem.AllocFastFirst,
		})
		if merr != nil {
			err = merr
			return 0
		}
		fast = 0
		begin := time.Now()
		for i, a := range accs {
			t, ok := memory.TouchTier(a.Page)
			if !ok {
				t, _ = memory.Touch(a.Page)
			}
			tiers[i] = t
			if t == mem.Fast {
				fast++
			}
		}
		return time.Since(begin)
	}))
	if err != nil {
		return err
	}
	ly["mem.fast_hit_ratio"] = float64(fast) / n

	// tracker: Observe at the tracker's period, Sync every virtual tick,
	// Drain at the simulator's batch size.
	const nsPerAccess, tickNs, batchDrain = 100, 10_000_000, 256
	var syncTotal time.Duration
	for _, kind := range tracker.Kinds() {
		var syncBusy time.Duration
		d := medianPass(func() time.Duration {
			cfg := tracker.DefaultConfig()
			cfg.Kind = kind
			trk, terr := tracker.New(cfg, numPages, nil)
			if terr != nil {
				err = terr
				return 0
			}
			syncBusy = 0
			var batch []pebs.Sample
			period := trk.Period()
			left, now, nextTick := period, int64(0), int64(tickNs)
			begin := time.Now()
			for i, a := range accs {
				if left--; left <= 0 {
					trk.Observe(a.Page, tiers[i], now, a.Write)
					left = period
				}
				now += nsPerAccess
				if now >= nextTick {
					s0 := time.Now()
					trk.Sync(now)
					syncBusy += time.Since(s0)
					nextTick += tickNs
				}
				if trk.Pending() >= batchDrain {
					batch = trk.Drain(batch[:0], 0)
				}
			}
			return time.Since(begin)
		})
		if err != nil {
			return err
		}
		ly["tracker."+kind+"_ns_per_access"] = perAccess(d)
		syncTotal += syncBusy
	}
	ly["tracker.sync_s"] = syncTotal.Seconds()

	// cachesim: the application-side access of the cache model, with the
	// simulator's own line-offset hash.
	var llc cachesim.Stats
	ly["cachesim.ns_per_access"] = perAccess(medianPass(func() time.Duration {
		h := cachesim.NewDefault()
		begin := time.Now()
		for i, a := range accs {
			off := int64(xrand.Hash64(uint64(a.Page)^uint64(i)) & 0xfc0)
			h.Access(int64(a.Page)*mem.RegularPageBytes+off, cachesim.App)
		}
		d := time.Since(begin)
		llc = h.LLC()
		return d
	}))
	if total := llc.TotalAccesses(); total > 0 {
		ly["cachesim.llc_miss_ratio"] = float64(llc.TotalMisses()) / float64(total)
	}

	// stats: the two observers every op feeds, with the simulator's layouts.
	ly["stats.ns_per_observe"] = perAccess(medianPass(func() time.Duration {
		hist := stats.NewHistogram(0, 50_000, 8192)
		series := stats.NewTimeSeries(100_000_000, 0, 50_000, 4096)
		now := int64(0)
		begin := time.Now()
		for _, a := range accs {
			v := 80 + int64(a.Page&63)*7
			now += v
			hist.Observe(v)
			series.Observe(now, v)
		}
		return time.Since(begin)
	})) / 2

	// cbf: increment-and-estimate on both layouts, sized like HybridTier's
	// frequency filter.
	var cbfTotal time.Duration
	for _, blocked := range []bool{true, false} {
		cbfTotal += medianPass(func() time.Duration {
			f, ferr := cbf.New(cbf.Params{
				K: 4, CounterBits: 4, Counters: cbf.SizeForError(numPages, 0.001, 4), Blocked: blocked, Seed: 1,
			})
			if ferr != nil {
				err = ferr
				return 0
			}
			begin := time.Now()
			for _, a := range accs {
				f.IncrementGet(uint64(a.Page))
			}
			return time.Since(begin)
		})
	}
	if err != nil {
		return err
	}
	ly["cbf.ns_per_update"] = perAccess(cbfTotal) / 2

	return rc.driveTracefile(accs, numPages, ly)
}

// driveTracefile writes the captured stream as a v2 trace and reads it back.
func (rc *runCtx) driveTracefile(accs []trace.Access, numPages int, ly layers) error {
	path := filepath.Join(rc.workDir, "drive.v2.htrc")
	var err error
	record := medianPass(func() time.Duration {
		begin := time.Now()
		w, werr := tracefile.CreateV2(path, tracefile.Meta{Name: "drive", NumPages: numPages, Seed: rc.seed})
		if werr != nil {
			err = werr
			return 0
		}
		for lo, i := 0, 0; i < len(accs); i++ {
			if accs[i].EndOp {
				if werr := w.WriteOp(accs[lo : i+1]); werr != nil {
					err = werr
				}
				lo = i + 1
			}
		}
		if werr := w.Close(); werr != nil {
			err = werr
		}
		return time.Since(begin)
	})
	if err != nil {
		return fmt.Errorf("tracefile drive: %w", err)
	}
	ly["tracefile.record_s"] = record.Seconds()
	if info, serr := os.Stat(path); serr == nil {
		ly["tracefile.file_mb"] = float64(info.Size()) / (1 << 20)
	}
	var decoded int
	decode := medianPass(func() time.Duration {
		r, rerr := tracefile.OpenV2(path)
		if rerr != nil {
			err = rerr
			return 0
		}
		defer r.Close()
		ops := r.Ops()
		var buf []trace.Access
		decoded = 0
		begin := time.Now()
		for done := int64(0); done < ops; {
			want := min(int64(512), ops-done)
			if buf = r.NextBatch(buf[:0], int(want)); len(buf) == 0 {
				break
			}
			decoded += len(buf)
			done += want
		}
		return time.Since(begin)
	})
	if err != nil {
		return fmt.Errorf("tracefile drive: %w", err)
	}
	if decoded > 0 {
		ly["tracefile.v2_decode_ns_per_access"] = float64(decode.Nanoseconds()) / float64(decoded)
	}
	return nil
}

// perCall times reps batches of batch calls to fn and returns the median
// cost of one call. Sub-microsecond calls need batch > 1: a clock read costs
// about as much as they do.
func perCall(reps, batch int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		begin := time.Now()
		for range batch {
			fn()
		}
		ds[i] = float64(time.Since(begin)) / float64(batch)
	}
	return time.Duration(median(ds))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// driveFacade times the root package's per-sweep plumbing on spec and its
// result cells: canonicalise+hash (paid per POST), cell planning, the
// whole-sweep marshal, and the per-cell reindex+merge the cell runner and
// the fabric assemble results with.
func driveFacade(spec hybridtier.SweepSpec, cells []hybridtier.CellResult, ly layers) error {
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		return err
	}
	ly["facade.canonical_hash_us"] = us(perCall(20, 50, func() {
		c, _ := spec.CanonicalJSON()
		hybridtier.HashCanonicalJSON(c)
	}))
	ly["facade.cellplans_us"] = us(perCall(20, 10, func() { hybridtier.CellPlans(canonical) }))
	ly["facade.marshal_ms"] = ms(perCall(20, 10, func() { json.Marshal(cells) }))
	singles := make([][]byte, len(cells))
	for i, c := range cells {
		if singles[i], err = hybridtier.MarshalSingletonCell(c); err != nil {
			return err
		}
	}
	whole, _ := json.Marshal(cells)
	var merged []byte
	ly["facade.merge_us"] = us(perCall(20, 1, func() {
		elements := make([][]byte, len(singles))
		for i, s := range singles {
			elements[i], _ = hybridtier.ReindexCellJSON(s, i)
		}
		merged = hybridtier.MergeCellJSON(elements)
	}))
	if !bytes.Equal(merged, whole) {
		return fmt.Errorf("facade drive: merged cell bytes differ from the whole-sweep marshal")
	}
	return nil
}

// driveServing times the jobs and service layers in process, on a real
// directory (so fsyncs are real) but with no sockets: cache put/get on both
// tiers, a journal append, a cache-hit Submit, and the three hot handlers
// through an httptest.ResponseRecorder. result is a served result of spec.
func (rc *runCtx) driveServing(spec hybridtier.SweepSpec, result []byte, ly layers) error {
	dir, err := os.MkdirTemp(rc.workDir, "drive-*")
	if err != nil {
		return err
	}
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		return err
	}
	hash := hybridtier.HashCanonicalJSON(canonical)
	// entries stored results, hits cache-hit submits: each costs fsyncs.
	entries, hits := 32, 200
	if rc.z.smoke {
		entries, hits = 4, 8
	}
	hashes := make([]string, entries)
	for i := range hashes {
		hashes[i] = sha([]byte(fmt.Sprintf("drive-%d", i)))
	}

	cache, err := jobs.NewCache(256<<20, dir)
	if err != nil {
		return err
	}
	i := 0
	ly["jobs.cache_put_ms"] = ms(perCall(entries, 1, func() {
		if perr := cache.Put(hashes[i], result, canonical); perr != nil {
			err = perr
		}
		i++
	}))
	if err != nil {
		return fmt.Errorf("jobs drive: %w", err)
	}
	i = 0
	ly["jobs.cache_get_mem_us"] = us(perCall(20, 1000, func() { cache.Get(hashes[i%entries]); i++ }))
	cold, err := jobs.NewCache(256<<20, dir)
	if err != nil {
		return err
	}
	i = 0
	ly["jobs.cache_get_disk_us"] = us(perCall(entries, 1, func() {
		if _, ok := cold.Get(hashes[i]); !ok {
			err = fmt.Errorf("jobs drive: stored result %d unreadable", i)
		}
		i++
	}))
	if err != nil {
		return err
	}

	journal, _, err := jobs.OpenJournal(filepath.Join(dir, "journal.wal"), nil)
	if err != nil {
		return err
	}
	defer journal.Close()
	ly["jobs.journal_append_ms"] = ms(perCall(entries, 1, func() {
		if aerr := journal.Append(jobs.Record{Type: "submit", Hash: hash, Spec: canonical}); aerr != nil {
			err = aerr
		}
	}))
	if err != nil {
		return fmt.Errorf("jobs drive: %w", err)
	}

	if err := cache.Put(hash, result, canonical); err != nil {
		return err
	}
	manager := jobs.NewManager(jobs.Config{
		Cache: cache, Journal: journal,
		Run: func(context.Context, []byte, func(int, int)) ([]byte, error) {
			return nil, fmt.Errorf("the drive submits only cached specs")
		},
	})
	defer service.Drain(manager, stopTimeout)
	ly["jobs.submit_hit_us"] = us(perCall(hits, 1, func() {
		if j, _, serr := manager.Submit(hash, canonical); serr != nil || !j.Info().CacheHit {
			err = fmt.Errorf("jobs drive: submit of a cached spec missed (%v)", serr)
		}
	}))
	if err != nil {
		return err
	}

	handler := service.NewHandler(service.Config{Manager: manager})
	body, _ := json.Marshal(spec)
	serve := func(method, path string, payload []byte, inm string, want int) func() {
		return func() {
			var req *http.Request
			if payload != nil {
				req = httptest.NewRequest(method, path, bytes.NewReader(payload))
			} else {
				req = httptest.NewRequest(method, path, nil)
			}
			if inm != "" {
				req.Header.Set("If-None-Match", inm)
			}
			rr := httptest.NewRecorder()
			handler.ServeHTTP(rr, req)
			if rr.Code != want {
				err = fmt.Errorf("service drive: %s %s: status %d, want %d", method, path, rr.Code, want)
			}
		}
	}
	ly["service.handler_fetch_us"] = us(perCall(20, 100, serve("GET", "/results/"+hash, nil, "", http.StatusOK)))
	ly["service.handler_304_us"] = us(perCall(20, 100, serve("GET", "/results/"+hash, nil, `"`+hash+`"`, http.StatusNotModified)))
	ly["service.handler_submit_us"] = us(perCall(hits, 1, serve("POST", "/jobs", body, "", http.StatusOK)))
	ly["service.result_bytes"] = float64(len(result))
	return err
}
