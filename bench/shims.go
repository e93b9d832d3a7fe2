package main

import (
	"io"
	"sync"
	"time"

	hybridtier "repro"
	"repro/internal/mem"
	"repro/internal/registry"
	"repro/internal/tier"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

// The traced run times a cell's two callee layers from outside the
// simulator: the policy, through a shim registered beside the real entry in
// the policy registry, and the workload generator, through a shim around the
// source handed in via WithWorkloadFunc. The simulator and the facade pick
// fast paths by probing optional interfaces, so each shim must present
// exactly the optional interfaces of the value it wraps — otherwise the
// traced cell would run a different loop than the untraced one. Go has no
// way to build a method set at run time, hence one small struct per
// combination.

// policyTimes accumulates one traced cell's policy callbacks.
type policyTimes struct {
	onSamples, tick, onFault time.Duration
	sampleCalls, ticks       int64
	samples, faults          int64
}

func (t *policyTimes) busy() time.Duration { return t.onSamples + t.tick + t.onFault }

// policyShim times the two callbacks every policy has. Embedding the
// interface (not the concrete policy) keeps the wrapped value's optional
// methods out of the shim's method set.
type policyShim struct {
	tier.Policy
	t *policyTimes
}

func (p *policyShim) OnSamples(batch []tier.Sample) {
	start := time.Now()
	p.Policy.OnSamples(batch)
	p.t.onSamples += time.Since(start)
	p.t.sampleCalls++
	p.t.samples += int64(len(batch))
}

func (p *policyShim) Tick() {
	start := time.Now()
	p.Policy.Tick()
	p.t.tick += time.Since(start)
	p.t.ticks++
}

type recencyFreeMark struct{}

func (recencyFreeMark) RecencyFree() {}

// faultSampleEvery is the OnFault timing stride. Fault-driven policies take
// ~150k faults per million ops; two clock reads on each would cost more than
// the handlers themselves, so every 8th call is timed and scaled.
const faultSampleEvery = 8

type faultShim struct {
	fd tier.FaultDriven
	t  *policyTimes
}

func (f *faultShim) WantsFault(p mem.PageID) bool { return f.fd.WantsFault(p) }

func (f *faultShim) OnFault(p mem.PageID, t mem.Tier) {
	n := f.t.faults
	f.t.faults++
	if n%faultSampleEvery != 0 {
		f.fd.OnFault(p, t)
		return
	}
	start := time.Now()
	f.fd.OnFault(p, t)
	f.t.onFault += faultSampleEvery * time.Since(start)
}

type bitmapShim struct{ fb tier.FaultBitmapped }

func (b bitmapShim) FaultBitmap() []uint64 { return b.fb.FaultBitmap() }

// wrapPolicy returns p behind timing shims with p's exact optional
// interface set (tier.RecencyFree, tier.FaultDriven, tier.FaultBitmapped).
func wrapPolicy(p tier.Policy, t *policyTimes) tier.Policy {
	base := &policyShim{Policy: p, t: t}
	_, recency := p.(tier.RecencyFree)
	fd, faulty := p.(tier.FaultDriven)
	fb, bitmapped := p.(tier.FaultBitmapped)
	var fs *faultShim
	if faulty {
		fs = &faultShim{fd: fd, t: t}
	}
	switch {
	case bitmapped && recency:
		return struct {
			*policyShim
			*faultShim
			bitmapShim
			recencyFreeMark
		}{base, fs, bitmapShim{fb}, recencyFreeMark{}}
	case bitmapped:
		return struct {
			*policyShim
			*faultShim
			bitmapShim
		}{base, fs, bitmapShim{fb}}
	case faulty && recency:
		return struct {
			*policyShim
			*faultShim
			recencyFreeMark
		}{base, fs, recencyFreeMark{}}
	case faulty:
		return struct {
			*policyShim
			*faultShim
		}{base, fs}
	case recency:
		return struct {
			*policyShim
			recencyFreeMark
		}{base, recencyFreeMark{}}
	}
	return base
}

// tracedSuffix names the shim entries: "Memtis" is traced as "Memtis~traced".
// The suffix never reaches a Result (the shim forwards Name()), only the
// registry key, and '~' cannot collide with the "@tracker" qualifier.
const tracedSuffix = "~traced"

// policySink receives the times of the most recently constructed traced
// policy. The traced run is single-threaded: it points current at a fresh
// policyTimes before each cell.
type policySink struct{ current *policyTimes }

var (
	tracedSink     policySink
	tracedRegister sync.Once
)

// registerTracedPolicies registers a "<name>~traced" twin of every policy in
// the default registry, once per process.
func registerTracedPolicies() {
	tracedRegister.Do(func() {
		reg := hybridtier.DefaultPolicies()
		for _, name := range reg.Names() {
			entry, _ := reg.Lookup(name)
			real := entry.New
			entry.Name = name + tracedSuffix
			entry.New = func(numPages, fastPages int, huge bool) (tier.Policy, mem.AllocMode, error) {
				p, alloc, err := real(numPages, fastPages, huge)
				if err != nil {
					return nil, 0, err
				}
				return wrapPolicy(p, tracedSink.current), alloc, nil
			}
			reg.MustRegister(entry)
		}
	})
}

// tracedPolicyName maps a (possibly "@tracker"-qualified) policy name to its
// traced twin.
func tracedPolicyName(name hybridtier.PolicyName) hybridtier.PolicyName {
	bare, qual, qualified := registry.SplitPolicyQualifier(string(name))
	if qualified {
		return hybridtier.PolicyName(bare + tracedSuffix + registry.PolicyQualifierSep + qual)
	}
	return hybridtier.PolicyName(bare + tracedSuffix)
}

// genTimes accumulates one source's generation calls.
type genTimes struct {
	busy     time.Duration
	calls    int64
	accesses int64
}

// sourceShim times a generator. It always speaks BatchSource: a source with
// no native NextBatch is lifted by trace.AsBatchSource, which is exactly the
// adapter the simulator would have applied itself.
type sourceShim struct {
	src trace.BatchSource
	t   *genTimes
}

func (s *sourceShim) Name() string  { return s.src.Name() }
func (s *sourceShim) NumPages() int { return s.src.NumPages() }

func (s *sourceShim) NextOp(dst []trace.Access) []trace.Access {
	start, n := time.Now(), len(dst)
	dst = s.src.NextOp(dst)
	s.t.busy += time.Since(start)
	s.t.calls++
	s.t.accesses += int64(len(dst) - n)
	return dst
}

func (s *sourceShim) NextBatch(dst []trace.Access, max int) []trace.Access {
	start, n := time.Now(), len(dst)
	dst = s.src.NextBatch(dst, max)
	s.t.busy += time.Since(start)
	s.t.calls++
	s.t.accesses += int64(len(dst) - n)
	return dst
}

func (s *sourceShim) AdvanceTime(now int64) {
	start := time.Now()
	s.src.AdvanceTime(now)
	s.t.busy += time.Since(start)
	s.t.calls++
}

// Method-only views of the optional source interfaces (trace.ShiftSource
// embeds Source, which would collide with sourceShim's own methods).
type (
	clockFreer interface{ ClockFree() bool }
	shifter    interface{ ShiftTime() int64 }
	errer      interface{ Err() error }
)

// wrapSource returns w behind a timing shim with w's exact optional
// interface set. Generators may add trace.ClockFree, trace.ShiftSource,
// Err() and io.Closer in any combination; trace-file replays are wrapped by
// wrapReplay instead.
func wrapSource(w trace.Source, t *genTimes) trace.Source {
	if r, ok := w.(tracefile.Replay); ok {
		return wrapReplay(r, t)
	}
	base := &sourceShim{src: trace.AsBatchSource(w), t: t}
	cf, hasCF := w.(trace.ClockFree)
	sh, hasSh := w.(trace.ShiftSource)
	er, hasEr := w.(errer)
	cl, hasCl := w.(io.Closer)
	mask := 0
	for i, has := range []bool{hasCF, hasSh, hasEr, hasCl} {
		if has {
			mask |= 1 << i
		}
	}
	switch mask {
	case 0:
		return base
	case 1:
		return struct {
			*sourceShim
			clockFreer
		}{base, cf}
	case 2:
		return struct {
			*sourceShim
			shifter
		}{base, sh}
	case 3:
		return struct {
			*sourceShim
			clockFreer
			shifter
		}{base, cf, sh}
	case 4:
		return struct {
			*sourceShim
			errer
		}{base, er}
	case 5:
		return struct {
			*sourceShim
			clockFreer
			errer
		}{base, cf, er}
	case 6:
		return struct {
			*sourceShim
			shifter
			errer
		}{base, sh, er}
	case 7:
		return struct {
			*sourceShim
			clockFreer
			shifter
			errer
		}{base, cf, sh, er}
	case 8:
		return struct {
			*sourceShim
			io.Closer
		}{base, cl}
	case 9:
		return struct {
			*sourceShim
			clockFreer
			io.Closer
		}{base, cf, cl}
	case 10:
		return struct {
			*sourceShim
			shifter
			io.Closer
		}{base, sh, cl}
	case 11:
		return struct {
			*sourceShim
			clockFreer
			shifter
			io.Closer
		}{base, cf, sh, cl}
	case 12:
		return struct {
			*sourceShim
			errer
			io.Closer
		}{base, er, cl}
	case 13:
		return struct {
			*sourceShim
			clockFreer
			errer
			io.Closer
		}{base, cf, er, cl}
	case 14:
		return struct {
			*sourceShim
			shifter
			errer
			io.Closer
		}{base, sh, er, cl}
	}
	return struct {
		*sourceShim
		clockFreer
		shifter
		errer
		io.Closer
	}{base, cf, sh, er, cl}
}

// replayShim times a trace-file replay's decode calls. Embedding the Replay
// interface forwards the whole replay surface (header, path, shift marks,
// latched error, Close), which every reader version has.
type replayShim struct {
	tracefile.Replay
	bs trace.BatchSource
	t  *genTimes
}

func (r *replayShim) NextBatch(dst []trace.Access, max int) []trace.Access {
	start, n := time.Now(), len(dst)
	dst = r.bs.NextBatch(dst, max)
	r.t.busy += time.Since(start)
	r.t.calls++
	r.t.accesses += int64(len(dst) - n)
	return dst
}

// packedReplayShim adds the zero-copy view only a v2 reader offers, so the
// simulator keeps its packed loop.
type packedReplayShim struct {
	*replayShim
	pv trace.PackedViewSource
}

func (r packedReplayShim) NextPackedView(max int) []uint32 {
	start := time.Now()
	view := r.pv.NextPackedView(max)
	r.t.busy += time.Since(start)
	r.t.calls++
	r.t.accesses += int64(len(view))
	return view
}

func wrapReplay(r tracefile.Replay, t *genTimes) trace.Source {
	base := &replayShim{Replay: r, bs: trace.AsBatchSource(r), t: t}
	if pv, ok := r.(trace.PackedViewSource); ok {
		return packedReplayShim{base, pv}
	}
	return base
}
