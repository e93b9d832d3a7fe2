package trace

import "repro/internal/mem"

// BatchSource is the bulk form of Source: one call produces up to max whole
// operations instead of one, amortizing the per-op interface dispatch the
// simulator's hot loop would otherwise pay. Operation boundaries inside the
// flat access slice are carried by Access.EndOp, set on the final access of
// every operation.
//
// The contract mirrors NextOp's, with two additions:
//
//   - A call may append fewer than max operations (sources with op-count-
//     triggered behaviour end a batch right before the triggering op so the
//     simulator's clock notifications stay on the single-op schedule, see
//     ShiftingZipfSource.NextBatch); callers simply request again. A call
//     that appends nothing means the source can no longer produce ops at
//     all — only failed trace replays do that — and callers account the
//     missing operations as empty, exactly like repeated empty NextOps.
//   - Batching must not change the produced stream: for any interleaving
//     of NextBatch sizes, the concatenated operations are identical to
//     per-op NextOp calls. Time-driven behaviour keyed on AdvanceTime is
//     the one hazard; see AsBatchSource.
type BatchSource interface {
	Source
	// NextBatch appends up to max whole operations to dst, marking each
	// operation's final access with EndOp, and returns the extended slice.
	NextBatch(dst []Access, max int) []Access
}

// ClockFree is implemented by sources that can promise the CONTENT of their
// op stream is independent of the virtual clock: AdvanceTime changes nothing
// they emit. A source may still stamp an op-count-triggered shift with the
// clock (ShiftSource) — the stamp is not content, and a replay re-stamps it
// from the replaying run's own clock (see ReplaySource). For such sources one
// generated stream is valid for every simulation that consumes the same
// operation count, which the sweep engine exploits by generating once and
// replaying from memory across cells. The report is per-instance: a
// composite is clock-free only when every child is, and a trace-file reader
// is not — its ShiftTime is the recorded time, not the replaying clock.
type ClockFree interface {
	// ClockFree reports whether this instance's accesses are independent of
	// AdvanceTime.
	ClockFree() bool
}

// ReplaySource replays a pre-generated, immutable op stream from memory.
// Many ReplaySources can share one stream concurrently — each keeps only a
// cursor — which is how sweeps amortize generation across cells: the
// stream is generated once and every other cell consumes it by reference.
// Storage is packed at 4 bytes per access (page<<2 | endOp<<1 | write) and
// handed out zero-copy through NextPackedView, so replay costs a quarter
// of an []Access stream's memory traffic and no regeneration. Like every
// Source it is infinite: the stream wraps around at the end.
//
// A packed ShiftSource's shifts are kept beside the stream as marks — the
// op indexes they fired at. A fork stamps each mark with the last
// AdvanceTime of the run replaying it and ends its fetch right before the
// next mark, the schedule live generators keep (BatchSource), so the shift
// time a replaying cell reports is the one live generation would.
type ReplaySource struct {
	name     string
	numPages int
	packed   []uint32 // bit0 write, bit1 end-of-op, bits 2+ page id
	opStarts []int32  // packed index of each op's first access, plus end sentinel
	marks    []int32  // op index of each shift, ascending
	pos      int      // current op index
	next     int      // first mark not yet fired
	now      int64    // last AdvanceTime
	shiftAt  int64    // stamp of the last mark fired, -1 before any
}

// packedPageLimit is the largest page id the packed encoding carries;
// larger page spaces fall back to live generation.
const packedPageLimit = 1 << 30

// NewReplaySource builds the shared immutable stream for a ReplaySource by
// drawing ops whole operations from src (which should be clock-free). While
// packing, the op index is src's clock: the BatchSource contract makes a
// shifting op the first of its batch, so a ShiftTime that changed across a
// batch is that op's index — for composites with several shifting children
// and one-op adapters alike. The returned prototype is positioned at the
// start; Fork cheap-copies it for concurrent consumers. It returns nil if
// src stops producing early, a page id exceeds the packed encoding, a shift
// is not stamped with the clock, or the stream would exceed maxAccesses —
// callers then fall back to live generation.
//
// Arguments after maxAccesses are ignored; they are accepted only so that
// callers passing a nil there keep compiling.
func NewReplaySource(src Source, ops int64, maxAccesses int, _ ...*ReplaySource) *ReplaySource {
	bs := AsBatchSource(src)
	ss, _ := src.(ShiftSource)
	packed := make([]uint32, 0, min(int64(maxAccesses), ops*4))
	opStarts := make([]int32, 0, ops+1)
	var marks []int32
	// opStarts[i] is op i's first access; the op ends where the next one
	// starts, so recording each op's end index after the leading 0 yields
	// starts and the final sentinel in one pass.
	opStarts = append(opStarts, 0)
	var chunk []Access // generation staging, stays cache-hot
	var generated int64
	shiftAt := int64(-1)
	sized := false
	for generated < ops {
		want := int64(4096)
		if rem := ops - generated; rem < want {
			want = rem
		}
		first := generated
		bs.AdvanceTime(first)
		chunk = bs.NextBatch(chunk[:0], int(want))
		if ss != nil && ss.ShiftTime() != shiftAt {
			if shiftAt = ss.ShiftTime(); shiftAt != first {
				return nil // not a stamp of our clock: a recorded time
			}
			marks = append(marks, int32(first))
		}
		if len(chunk) == 0 || len(packed)+len(chunk) > maxAccesses ||
			len(packed)+len(chunk) > (1<<31-2) {
			return nil
		}
		// Bulk-extend, then index: the pack loop runs without per-element
		// append bookkeeping.
		base := len(packed)
		if cap(packed)-base < len(chunk) {
			grown := make([]uint32, base, (base+len(chunk))*2)
			copy(grown, packed)
			packed = grown
		}
		packed = packed[:base+len(chunk)]
		out := packed[base:]
		for j, a := range chunk {
			if a.Page >= packedPageLimit {
				return nil
			}
			v := uint32(a.Page) << 2
			if a.Write {
				v |= 1
			}
			if a.EndOp {
				v |= 2
				generated++
				opStarts = append(opStarts, int32(base+j+1))
			}
			out[j] = v
		}
		// Size the stream once from the first batch's measured access
		// density instead of paying repeated append-growth copies of a
		// multi-MB slice; at most the small first batch is re-copied.
		if !sized && generated > 0 {
			sized = true
			if generated < ops {
				projected := int(float64(len(packed)) / float64(generated) * float64(ops) * 1.07)
				if projected > maxAccesses {
					projected = maxAccesses
				}
				if cap(packed) < projected {
					grown := make([]uint32, len(packed), projected)
					copy(grown, packed)
					packed = grown
				}
			}
		}
	}
	return &ReplaySource{
		name:     src.Name(),
		numPages: src.NumPages(),
		packed:   packed,
		opStarts: opStarts,
		marks:    marks,
		shiftAt:  -1,
	}
}

// Fork returns an independent cursor over the same shared stream. It is a
// ShiftSource exactly when the stream carries marks — interface presence is
// what AsBatchSource, the trace recorder and the simulator key on (compose.go
// follows the same rule) — so a mark-free replay looks like a plain source.
func (r *ReplaySource) Fork() Source {
	cp := *r
	cp.pos, cp.next, cp.now, cp.shiftAt = 0, 0, 0, -1
	if len(cp.marks) == 0 {
		return &cp
	}
	return shiftReplay{&cp}
}

// shiftReplay is a fork of a stream with shift marks.
type shiftReplay struct{ *ReplaySource }

// ShiftTime implements ShiftSource with the replaying run's own stamp.
func (s shiftReplay) ShiftTime() int64 { return s.shiftAt }

// Ops returns the number of operations in the shared stream.
func (r *ReplaySource) Ops() int64 { return int64(len(r.opStarts)) - 1 }

// Accesses returns the number of packed accesses the shared stream holds —
// its memory cost, at 4 bytes each.
func (r *ReplaySource) Accesses() int { return len(r.packed) }

// Name implements Source with the recorded source's name.
func (r *ReplaySource) Name() string { return r.name }

// NumPages implements Source.
func (r *ReplaySource) NumPages() int { return r.numPages }

// AdvanceTime implements Source: the clock only stamps marks.
func (r *ReplaySource) AdvanceTime(now int64) { r.now = now }

// ClockFree implements the marker: a replayed clock-free stream is itself
// clock-free.
func (r *ReplaySource) ClockFree() bool { return true }

// UnpackAccess decodes one packed stream entry (see PackedViewSource).
func UnpackAccess(v uint32) Access {
	return Access{Page: mem.PageID(v >> 2), Write: v&1 != 0, EndOp: v&2 != 0}
}

// NextOp implements Source. The packed stream carries EndOp bits, but the
// Access contract says single-op fetches leave EndOp false, so the final
// access's flag is cleared.
func (r *ReplaySource) NextOp(dst []Access) []Access {
	dst = r.NextBatch(dst, 1)
	dst[len(dst)-1].EndOp = false
	return dst
}

// NextBatch implements BatchSource as one bulk decode of a packed view.
func (r *ReplaySource) NextBatch(dst []Access, max int) []Access {
	for _, v := range r.NextPackedView(max) {
		dst = append(dst, UnpackAccess(v))
	}
	return dst
}

// PackedViewSource is an optional refinement of BatchSource for sources
// that store their stream packed (UnpackAccess's encoding): NextPackedView
// returns up to max whole operations as a read-only slice of internal
// storage, valid until the next call. For max > 0 an empty view means the
// source is exhausted or has permanently failed (a file-backed reader's
// latched Err), mirroring NextOp's empty-slice convention.
// Consumers that only iterate a batch (the simulator) prefer it over
// NextBatch: no copy, no decode materialization, and a quarter of the
// memory traffic of an []Access batch.
type PackedViewSource interface {
	NextPackedView(max int) []uint32
}

// NextPackedView implements PackedViewSource: the returned batch aliases
// the shared stream. A view never spans the wrap-around or a pending mark,
// so it may hold fewer than max ops.
func (r *ReplaySource) NextPackedView(max int) []uint32 {
	n := int(r.Ops())
	take := max
	if rem := n - r.pos; take > rem {
		take = rem
	}
	if r.next < len(r.marks) {
		// The op at a mark is the first of its view, so every earlier op's
		// ticks have been delivered: now is the shift's time.
		if int(r.marks[r.next]) == r.pos && take > 0 {
			r.shiftAt = r.now
			r.next++
		}
		if r.next < len(r.marks) && take > int(r.marks[r.next])-r.pos {
			take = int(r.marks[r.next]) - r.pos
		}
	}
	lo, hi := r.opStarts[r.pos], r.opStarts[r.pos+take]
	if r.pos += take; r.pos == n {
		r.pos = 0
	}
	return r.packed[lo:hi]
}

// AsBatchSource returns src as a BatchSource. Sources with a native
// NextBatch are returned unchanged. Anything else is wrapped in an adapter
// that fetches through NextOp, filling the requested batch — except when
// src is a ShiftSource, where the adapter degrades to one op per call.
//
// The degradation is a contract, not an optimization shortfall. The
// simulator delivers AdvanceTime while it consumes a batch, so every op
// in a batch is generated before the ticks of the ops ahead of it have
// been delivered. For most sources that is invisible: generation does not
// read the clock. An op-count-triggered shift is the exception — it
// timestamps itself with the last AdvanceTime it saw, so the shifting op
// must not be generated until every earlier op's ticks are delivered. A
// native implementation knows its own schedule and caps its batches right
// before the shifting op (see ShiftingZipfSource.NextBatch); a generic
// adapter cannot know the schedule, so one op per call — which makes the
// fetch schedule identical to the single-op reference path — is the only
// batch size that provably preserves shift timestamps. The composition
// combinators (compose.go) inherit the same rule: any combinator with a
// ShiftSource child runs its clock-sensitive fetches one op per call, and
// the regression tests in compose_test.go hold every nesting to it.
//
// Consequently a capture or replay wrapped in such an adapter is
// byte-identical for every consumer batch size, at the cost of per-op
// dispatch; implement BatchSource natively (with correct capping) where
// that overhead matters.
func AsBatchSource(src Source) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	_, shift := src.(ShiftSource)
	return &opAdapter{src: src, single: shift}
}

// opAdapter lifts a plain Source to BatchSource via repeated NextOp calls.
type opAdapter struct {
	src    Source
	single bool
}

func (a *opAdapter) Name() string          { return a.src.Name() }
func (a *opAdapter) NumPages() int         { return a.src.NumPages() }
func (a *opAdapter) AdvanceTime(now int64) { a.src.AdvanceTime(now) }

func (a *opAdapter) NextOp(dst []Access) []Access { return a.src.NextOp(dst) }

// NextBatch implements BatchSource by looping NextOp. An empty op stops the
// batch: empty ops are how erroring sources (failed replays) present, and
// they cannot be represented in a flat batch.
func (a *opAdapter) NextBatch(dst []Access, max int) []Access {
	if a.single && max > 1 {
		max = 1
	}
	for i := 0; i < max; i++ {
		n := len(dst)
		dst = a.src.NextOp(dst)
		if len(dst) == n {
			break
		}
		dst[len(dst)-1].EndOp = true
	}
	return dst
}
