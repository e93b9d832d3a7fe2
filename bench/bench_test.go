package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	hybridtier "repro"
	"repro/internal/mem"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

// TestPolicyShimsKeepInterfaces: for every registered policy, at both page
// granularities, the timing shim exposes exactly the optional interfaces of
// the policy it wraps — so sim.Run picks the same fast paths — and the
// registered "~traced" twin builds the same policy.
func TestPolicyShimsKeepInterfaces(t *testing.T) {
	registerTracedPolicies()
	reg := hybridtier.DefaultPolicies()
	seen := map[string]bool{}
	for _, name := range reg.Names() {
		if strings.HasSuffix(name, tracedSuffix) {
			continue
		}
		for _, huge := range []bool{false, true} {
			p, _, err := reg.New(name, 4096, 455, huge)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			shim := wrapPolicy(p, &policyTimes{})
			if got, want := ifaceSet(shim), ifaceSet(p); got != want {
				t.Errorf("%s (huge=%v): shim exposes %s, policy %s", name, huge, got, want)
			}
			seen[ifaceSet(p)] = true

			tracedSink.current = &policyTimes{}
			twin, _, err := reg.New(name+tracedSuffix, 4096, 455, huge)
			if err != nil {
				t.Fatalf("%s%s: %v", name, tracedSuffix, err)
			}
			if twin.Name() != p.Name() || ifaceSet(twin) != ifaceSet(p) {
				t.Errorf("%s%s: twin is %s %s, want %s %s", name, tracedSuffix, twin.Name(), ifaceSet(twin), p.Name(), ifaceSet(p))
			}
		}
	}
	// The registry does not hold every combination wrapPolicy distinguishes;
	// fakes cover the rest.
	base, _, err := reg.New("FirstTouch", 64, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	fakes := []tier.Policy{
		fakePlain{base},
		struct {
			fakePlain
			recencyFreeMark
		}{fakePlain{base}, recencyFreeMark{}},
		fakeFaulty{fakePlain{base}},
		struct {
			fakeFaulty
			recencyFreeMark
		}{fakeFaulty{fakePlain{base}}, recencyFreeMark{}},
		fakeBitmapped{fakeFaulty{fakePlain{base}}},
		struct {
			fakeBitmapped
			recencyFreeMark
		}{fakeBitmapped{fakeFaulty{fakePlain{base}}}, recencyFreeMark{}},
	}
	for _, p := range fakes {
		pt := &policyTimes{}
		shim := wrapPolicy(p, pt)
		if got, want := ifaceSet(shim), ifaceSet(p); got != want {
			t.Errorf("fake %s: shim exposes %s", want, got)
		}
		seen[ifaceSet(p)] = true
		shim.OnSamples(make([]tier.Sample, 3))
		shim.Tick()
		if fd, ok := shim.(tier.FaultDriven); ok {
			for i := 0; i < 2*faultSampleEvery; i++ {
				fd.OnFault(1, mem.Fast)
			}
		}
		if pt.sampleCalls != 1 || pt.ticks != 1 || pt.samples != 3 {
			t.Errorf("fake %s: shim counted %+v", ifaceSet(p), *pt)
		}
		if _, ok := p.(tier.FaultDriven); ok && pt.faults != 2*faultSampleEvery {
			t.Errorf("fake %s: shim counted %d faults", ifaceSet(p), pt.faults)
		}
	}
	if len(seen) != 6 {
		t.Errorf("covered %d interface combinations, wrapPolicy distinguishes 6: %v", len(seen), seen)
	}
	if got := tracedPolicyName("LRU@idlepage"); got != "LRU~traced@idlepage" {
		t.Errorf("tracedPolicyName(LRU@idlepage) = %s", got)
	}
}

// ifaceSet names the optional interfaces v implements — the ones the facade
// and the simulator probe. The shim tests compare a shim's set with its
// wrapped value's.
func ifaceSet(v any) string {
	set := ""
	add := func(ok bool, name string) {
		if ok {
			set += name + " "
		}
	}
	_, ok := v.(tier.RecencyFree)
	add(ok, "RecencyFree")
	_, ok = v.(tier.FaultDriven)
	add(ok, "FaultDriven")
	_, ok = v.(tier.FaultBitmapped)
	add(ok, "FaultBitmapped")
	_, ok = v.(trace.ClockFree)
	add(ok, "ClockFree")
	_, ok = v.(trace.ShiftSource)
	add(ok, "ShiftSource")
	_, ok = v.(trace.PackedViewSource)
	add(ok, "PackedViewSource")
	_, ok = v.(tracefile.Replay)
	add(ok, "Replay")
	_, ok = v.(errer)
	add(ok, "Err")
	_, ok = v.(io.Closer)
	add(ok, "Closer")
	return fmt.Sprintf("[%s]", set)
}

// Fake policies with each optional-interface combination; the embedded
// interface hides the concrete policy's own optional methods.
type fakePlain struct{ tier.Policy }

type fakeFaulty struct{ fakePlain }

func (fakeFaulty) WantsFault(mem.PageID) bool   { return true }
func (fakeFaulty) OnFault(mem.PageID, mem.Tier) {}

type fakeBitmapped struct{ fakeFaulty }

func (fakeBitmapped) FaultBitmap() []uint64 { return nil }

// TestSourceShimsKeepInterfaces: the same for every registered workload,
// the compositions the benchmark uses, and both trace-file readers; and the
// shimmed stream is the wrapped stream.
func TestSourceShimsKeepInterfaces(t *testing.T) {
	z := sizing{smoke: true}
	names := hybridtier.DefaultWorkloads().Names()
	names = append(names, "phases:social@500,cdn", "mix:0.5*zipf,0.5*shifting-zipf", "repeat:silo@200")
	for _, j := range findWorkload("local_clocked").jobs(z, 1, 0) {
		if !j.replay {
			names = append(names, j.spec.Workload)
		}
	}
	v2, err := recordTrace(context.Background(), z, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, "trace:"+v2, "trace:"+strings.Replace(v2, ".v2.htrc", ".htrc", 1))

	build := func(name string) trace.Source {
		p := *z.params()
		p.Seed = 7
		w, err := hybridtier.DefaultWorkloads().New(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return w
	}
	for _, name := range names {
		inner, plain := build(name), build(name)
		gt := &genTimes{}
		shim := wrapSource(inner, gt)
		if got, want := ifaceSet(shim), ifaceSet(inner); got != want {
			t.Errorf("%s: shim exposes %s, source %s", name, got, want)
		}
		a := trace.AsBatchSource(shim).NextBatch(nil, 300)
		b := trace.AsBatchSource(plain).NextBatch(nil, 300)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: shim produced %d accesses, source %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: access %d differs through the shim", name, i)
			}
		}
		if gt.accesses != int64(len(a)) || gt.calls == 0 {
			t.Errorf("%s: shim counted %d accesses in %d calls, want %d", name, gt.accesses, gt.calls, len(a))
		}
		for _, s := range []trace.Source{inner, plain} {
			if c, ok := s.(interface{ Close() error }); ok {
				c.Close()
			}
		}
	}
	if r, err := tracefile.Open(v2); err != nil {
		t.Fatal(err)
	} else {
		defer r.Close()
		if _, ok := wrapSource(r, &genTimes{}).(trace.PackedViewSource); !ok {
			t.Error("a v2 replay lost its packed view behind the shim")
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median(4,1,3) = %g", got)
	}
	if got := median([]float64{4, 1}); got != 2.5 {
		t.Errorf("median(4,1) = %g", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g, %g, want 1, 4", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("cell", -1, "j", at(0), at(100))
	r.add("a", root, "j", at(10), at(40))
	r.add("b", root, "j", at(30), at(60))  // overlaps a: [10,60) is covered once
	r.add("c", root, "j", at(90), at(120)) // sticks out: only [90,100) counts
	off := r.addAgg("agg", root, "j", int64(60*time.Millisecond), 5*time.Millisecond, 9)
	if off != int64(65*time.Millisecond) {
		t.Errorf("addAgg returned offset %d", off)
	}
	self := selfTimes(r.spans)
	if want := int64((100 - 50 - 10 - 5) * time.Millisecond); self[root] != want {
		t.Errorf("root self time %d, want %d", self[root], want)
	}
	if self[1] != int64(30*time.Millisecond) {
		t.Errorf("leaf self time %d, want its duration", self[1])
	}
	byName := selfByName(r.spans)
	if math.Abs(byName["cell"]-0.035) > 1e-9 || math.Abs(byName["agg"]-0.005) > 1e-9 {
		t.Errorf("selfByName = %v", byName)
	}
	var off2 *recorder
	if off2.add("x", -1, "", at(0), at(1)) != -1 || off2.len() != 0 {
		t.Error("a nil recorder must record nothing")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON: the checked-in contract is the rendering of the metric
// tables, and the tables stay inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -print-benchmark-json > BENCHMARK.json`")
	}
	names := map[string]bool{}
	use := func(n string) {
		if !nameRE.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	for _, d := range perLayer {
		use(d.Name)
	}
}

// TestGoldenCoversEveryJob: every job of every workload at the default seed
// has a golden hash, for goldenIters iterations of the cold workloads.
func TestGoldenCoversEveryJob(t *testing.T) {
	g, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, w := range workloads {
		iters := 1
		if w.kind == kindCold {
			iters = goldenIters
		}
		for it := 0; it < iters; it++ {
			for _, j := range w.jobs(sizing{}, defaultSeed, it) {
				if len(g[j.name]) != 64 {
					t.Errorf("golden.json lacks %s", j.name)
				}
				if !w.fleet {
					want++
				}
			}
		}
	}
	if len(g) != want {
		t.Errorf("golden.json has %d entries, the workloads define %d jobs", len(g), want)
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke size with
// in-process daemons: every code path of the benchmark, and the shape of
// what it prints.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			o := options{root: root, out: t.TempDir(), workload: w.name, seed: 3, seconds: 0, trace: trace, smoke: true}
			t0 := time.Now()
			rep, problems, err := runOnce(context.Background(), o, t.TempDir())
			t.Logf("%s trace=%d took %s", w.name, trace, time.Since(t0))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || len(problems) != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d %v", w.name, trace, rep.Correct, rep.Attempted, rep.Failed, problems)
			}
			want := map[string]string{}
			if trace == 0 {
				for _, d := range endToEnd {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range perLayer {
					want[d.Name] = d.Unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for name, v := range rep.Metrics {
				if want[name] != v.Unit {
					t.Errorf("%s trace=%d: metric %s has unit %q, want %q", w.name, trace, name, v.Unit, want[name])
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s trace=%d: metric %s = %g", w.name, trace, name, v.Value)
				}
				if trace == 0 && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", w.name, name)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(o.out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				for _, name := range []string{"bench.spans", "bench.trace_overhead_ratio", "facade.marshal_ms"} {
					if rep.Metrics[name].Value == 0 {
						t.Errorf("%s: traced run left %s at zero", w.name, name)
					}
				}
			}
		}
	}
}
