package trace

import (
	"errors"
	"sync"

	"repro/internal/mem"
)

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
//
// A stream may still be packing while it is read (StartReplaySource): it
// grows in chunks of whole ops that never move once published, a view never
// spans two chunks, and a fork that catches up with the packer waits for
// the next chunk. A fork of a stream whose packing stopped short returns
// empty views at the point it stopped, and Err says why.
type ReplaySource struct {
	s *packedStream
	// The fork's copy of what the packer had published when the fork last
	// looked; a fork of a complete stream never looks again.
	chunks  []packedChunk
	marks   []int32 // op index of each shift, ascending
	ops     int     // ops in chunks
	whole   bool    // chunks hold the whole stream
	cur     packedChunk
	end     int   // cur.end(): where the next view must start a chunk
	ci      int   // index of the chunk after cur
	pos     int   // current op index
	next    int   // first mark not yet fired
	now     int64 // last AdvanceTime
	shiftAt int64 // stamp of the last mark fired, -1 before any
}

// packedStream is the state every fork of one stream shares: what the
// packer has published so far, under mu.
type packedStream struct {
	name     string
	numPages int
	shifty   bool // the packed source is a ShiftSource
	done     chan struct{}

	mu       sync.Mutex
	grew     sync.Cond // signaled on every publish and at the end
	chunks   []packedChunk
	marks    []int32
	ops      int
	accesses int
	whole    bool
	err      error
}

// packedChunk is a run of whole ops, packed.
type packedChunk struct {
	words  []uint32 // bit0 write, bit1 end-of-op, bits 2+ page id
	starts []int32  // index in words of each op's first access, then len(words)
	first  int      // stream index of the chunk's first op
}

// end is the stream index one past the chunk's last op.
func (c *packedChunk) end() int { return c.first + len(c.starts) - 1 }

// packedPageLimit is the largest page id the packed encoding carries;
// larger page spaces fall back to live generation.
const packedPageLimit = 1 << 30

// chunkWords is the packed words a chunk holds, unless one op needs more:
// 256 KB, so a 1M-op stream packs into 16 (one access per op) to some 40
// (cdn) chunks and its forks start replaying within a few percent of its
// packing time.
const chunkWords = 1 << 16

// ErrStreamTooLong is the Err of a stream that outgrew its maxAccesses.
var ErrStreamTooLong = errors.New("trace: stream exceeds its access bound")

// Reasons a stream does not pack, as its Err reports them.
var (
	errStreamDry      = errors.New("trace: source stopped before the stream's last op")
	errStreamPages    = errors.New("trace: page id beyond the packed encoding")
	errStreamRecorded = errors.New("trace: shift not stamped with the packing clock")
)

// NewReplaySource builds the shared immutable stream for a ReplaySource by
// drawing ops whole operations from src (which should be clock-free): it
// starts packing (StartReplaySource) and waits until the stream is
// complete. It returns nil when the stream does not pack — src stops
// producing early, a page id exceeds the packed encoding, a shift is not
// stamped with the packing clock, or the stream would exceed maxAccesses —
// and callers then fall back to live generation.
//
// Arguments after maxAccesses are ignored; they are accepted only so that
// callers passing a nil there keep compiling.
func NewReplaySource(src Source, ops int64, maxAccesses int, _ ...*ReplaySource) *ReplaySource {
	r := StartReplaySource(src, ops, maxAccesses)
	if <-r.Done(); r.Err() != nil {
		return nil
	}
	return r
}

// StartReplaySource starts packing ops whole operations from src in a
// goroutine of its own and returns the stream's prototype at once,
// positioned at the start; Fork cheap-copies it for concurrent consumers,
// which may read the stream while it packs. src belongs to the packer until
// Done. While packing, the op index is src's clock: the BatchSource
// contract makes a shifting op the first of its batch, so a ShiftTime that
// changed across a batch is that op's index — for composites with several
// shifting children and one-op adapters alike.
func StartReplaySource(src Source, ops int64, maxAccesses int) *ReplaySource {
	return startReplay(src, ops, maxAccesses, chunkWords)
}

// startReplay is StartReplaySource with chunks of chunk words.
func startReplay(src Source, ops int64, maxAccesses, chunk int) *ReplaySource {
	_, shifty := src.(ShiftSource)
	s := &packedStream{
		name:     src.Name(),
		numPages: src.NumPages(),
		shifty:   shifty,
		done:     make(chan struct{}),
	}
	s.grew.L = &s.mu
	go s.pack(src, ops, maxAccesses, chunk)
	return &ReplaySource{s: s, shiftAt: -1}
}

// pack is the one pack loop. A batch passes the source, shift and bound
// checks before any of it is packed, each access the page check as it is
// packed, and a chunk is published only once it is full, so every op forks
// see has passed them all. Nothing is published before the first
// batch has measured the stream's density, and nothing before the stream is
// complete when that projects it past maxAccesses: forks wait rather than
// replay a stream that is likely to be abandoned.
func (s *packedStream) pack(src Source, ops int64, maxAccesses, chunk int) {
	bs := AsBatchSource(src)
	ss, _ := src.(ShiftSource)
	var (
		staging   []Access // generation staging, stays cache-hot
		held      []packedChunk
		marks     []int32
		generated int
		accesses  int // packed before this batch
		shiftAt   = int64(-1)
		hold      = true // until the first batch has measured the density
		projected = int(min(int64(maxAccesses), ops*4))
		perOp     = 1.0 // accesses per op; measured by the first batch
	)
	cur := newChunk(0, projected, chunk, perOp)
	for int64(generated) < ops {
		bs.AdvanceTime(int64(generated))
		staging = bs.NextBatch(staging[:0], int(min(4096, ops-int64(generated))))
		if ss != nil && ss.ShiftTime() != shiftAt {
			if shiftAt = ss.ShiftTime(); shiftAt != int64(generated) {
				s.fail(errStreamRecorded) // not a stamp of our clock: a recorded time
				return
			}
			marks = append(marks, int32(generated))
		}
		switch {
		case len(staging) == 0:
			s.fail(errStreamDry)
			return
		case accesses+len(staging) > maxAccesses:
			s.fail(ErrStreamTooLong)
			return
		}
		for rest := staging; len(rest) > 0; {
			n := fitOps(rest, cap(cur.words)-len(cur.words))
			switch {
			case n == 0 && len(cur.words) > 0:
				// The next op does not fit: the chunk is full.
				if held = append(held, cur); !hold {
					s.publish(held, marks, false)
					held = held[:0]
				}
				cur = newChunk(cur.end(), projected-accesses-(len(staging)-len(rest)), chunk, perOp)
				continue
			case n == 0:
				// An op longer than a whole chunk gets a chunk of its size.
				n = opLen(rest)
				cur.words = make([]uint32, 0, n)
			}
			if !cur.pack(rest[:n]) {
				s.fail(errStreamPages)
				return
			}
			rest = rest[n:]
		}
		if accesses == 0 {
			// Size the chunks from the first batch's measured access
			// density, and hold back a stream that will not fit.
			perOp = float64(len(staging)) / float64(cur.end())
			projected = int(perOp * float64(ops) * 1.07)
			if hold = projected > maxAccesses*107/100; !hold && len(held) > 0 {
				s.publish(held, marks, false)
				held = held[:0]
			}
		}
		generated = cur.end()
		accesses += len(staging)
	}
	if len(cur.starts) > 1 {
		held = append(held, cur)
	}
	s.publish(held, marks, true)
}

// newChunk returns an empty chunk for about want more accesses, and at most
// chunk, starting at op first, with room for the op starts of perOp
// accesses per op.
func newChunk(first, want, chunk int, perOp float64) packedChunk {
	size := max(chunk/64, min(want, chunk))
	starts := make([]int32, 1, int(float64(size)/perOp)+2)
	return packedChunk{words: make([]uint32, 0, size), starts: starts, first: first}
}

// fitOps returns the length of the longest leading run of whole operations
// in ops that holds at most room accesses.
func fitOps(ops []Access, room int) int {
	if len(ops) <= room {
		return len(ops)
	}
	for room > 0 && !ops[room-1].EndOp {
		room--
	}
	return room
}

// opLen returns the length of the first operation in ops.
func opLen(ops []Access) int {
	for i, a := range ops {
		if a.EndOp {
			return i + 1
		}
	}
	return len(ops)
}

// pack appends run, whole operations, to the chunk; it reports false, with
// the chunk in an unspecified state, for a page the encoding cannot carry.
func (c *packedChunk) pack(run []Access) bool {
	// Bulk-extend, then index, on locals: the pack loop runs without
	// per-element append bookkeeping on the words.
	base := len(c.words)
	words, starts := c.words[:base+len(run)], c.starts
	out := words[base:]
	for j, a := range run {
		if a.Page >= packedPageLimit {
			return false
		}
		v := uint32(a.Page) << 2
		if a.Write {
			v |= 1
		}
		if a.EndOp {
			v |= 2
			starts = append(starts, int32(base+j+1))
		}
		out[j] = v
	}
	c.words, c.starts = words, starts
	return true
}

// publish hands full chunks and the marks found so far to the forks; with
// whole, they complete the stream.
func (s *packedStream) publish(chunks []packedChunk, marks []int32, whole bool) {
	s.mu.Lock()
	for _, c := range chunks {
		s.chunks = append(s.chunks, c)
		s.ops = c.end()
		s.accesses += len(c.words)
	}
	s.marks = marks
	s.whole = whole
	s.mu.Unlock()
	s.grew.Broadcast()
	if whole {
		close(s.done)
	}
}

// fail ends packing short: forks read what was published, then nothing.
func (s *packedStream) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
	s.grew.Broadcast()
	close(s.done)
}

// Done returns a channel that is closed once packing has ended, complete or
// not.
func (r *ReplaySource) Done() <-chan struct{} { return r.s.done }

// Err reports why packing stopped short of the whole stream
// (ErrStreamTooLong, for one); it is nil while the stream packs and once it
// is complete. A run whose workload reports an Err fails, so a simulation
// over an abandoned stream never passes for a result.
func (r *ReplaySource) Err() error {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return r.s.err
}

// look copies what the packer has published into the fork's view of the
// stream — with wait, once that is more than the fork has or packing ended.
func (r *ReplaySource) look(wait bool) {
	s := r.s
	s.mu.Lock()
	for wait && s.ops == r.ops && !s.whole && s.err == nil {
		s.grew.Wait()
	}
	r.chunks, r.marks, r.ops, r.whole = s.chunks, s.marks, s.ops, s.whole
	s.mu.Unlock()
}

// Fork returns an independent cursor over the same shared stream, which
// may still be packing. It is a ShiftSource exactly when the packed source
// is one — interface presence is what AsBatchSource, the trace recorder and
// the simulator key on (compose.go follows the same rule), and it must not
// depend on how far packing has got — and reports -1 until a mark fires.
func (r *ReplaySource) Fork() Source {
	cp := &ReplaySource{s: r.s, shiftAt: -1}
	cp.look(false)
	if r.s.shifty {
		return shiftReplay{cp}
	}
	return cp
}

// shiftReplay is a fork of a stream packed from a ShiftSource.
type shiftReplay struct{ *ReplaySource }

// ShiftTime implements ShiftSource with the replaying run's own stamp.
func (s shiftReplay) ShiftTime() int64 { return s.shiftAt }

// Accesses returns the number of packed accesses published so far — the
// stream's memory cost, at 4 bytes each.
func (r *ReplaySource) Accesses() int {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return r.s.accesses
}

// Name implements Source with the recorded source's name.
func (r *ReplaySource) Name() string { return r.s.name }

// NumPages implements Source.
func (r *ReplaySource) NumPages() int { return r.s.numPages }

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
	n := len(dst)
	if dst = r.NextBatch(dst, 1); len(dst) > n {
		dst[len(dst)-1].EndOp = false
	}
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
// the shared stream. A view never spans the wrap-around, a pending mark or
// a chunk boundary, so it may hold fewer than max ops; at the packer's
// frontier it waits for the next chunk.
func (r *ReplaySource) NextPackedView(max int) []uint32 {
	if r.pos == r.end && !r.nextChunk() {
		return nil
	}
	take := min(max, r.end-r.pos)
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
	lo, hi := r.cur.starts[r.pos-r.cur.first], r.cur.starts[r.pos+take-r.cur.first]
	r.pos += take
	return r.cur.words[lo:hi]
}

// nextChunk moves the cursor, which has reached the end of its chunk, into
// the next one: after the fork's view of the stream, once the packer has
// published it, or back to the first at the end of a complete stream. It
// reports false when there is none: packing stopped short, or the stream
// is empty.
func (r *ReplaySource) nextChunk() bool {
	if r.pos == r.ops {
		if !r.whole {
			r.look(true) // the fork caught up with the packer
		}
		if r.pos == r.ops {
			if !r.whole || r.ops == 0 {
				return false
			}
			r.pos, r.ci = 0, 0
		}
	}
	r.cur = r.chunks[r.ci]
	r.end = r.cur.end()
	r.ci++
	return true
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
