package trace

// Workload composition: deterministic combinators that build composite
// access streams out of existing Sources. Mix interleaves N tenants with a
// weighted round-robin schedule over disjoint page ranges, Phases (and its
// two-source shorthand Concat) switches sources after fixed op counts,
// Repeat loops a captured prefix forever, and Offset/Scale transform the
// address space. Combinators nest freely, so five base workloads span an
// unbounded scenario space — internal/registry exposes the same algebra as
// a textual grammar ("mix:0.7*cdn,0.3*silo", see docs/COMPOSITION.md).
//
// Every combinator obeys the full Source ecosystem contract:
//
//   - NextOp and native NextBatch produce the identical operation stream
//     for any interleaving of fetch sizes (the BatchSource contract), so
//     the simulator's batched hot path runs composed cells to the bytes of
//     its reference, which fetches one op per NextOp.
//   - ShiftSource propagates: when any child can shift, the composite
//     reports the latest child shift time, and batches degrade to one op
//     per call so op-count-triggered shifts observe the virtual clock on
//     exactly the single-op schedule (the AsBatchSource contract).
//   - ClockFree propagates: a composite is clock-free only when every
//     child declares itself clock-free, so the sweep engine's stream
//     sharing still kicks in for composed workloads.
//   - Err and Close propagate, so a composition over trace replays
//     surfaces stream failures and releases file handles like a bare
//     replay does.
//
// AdvanceTime is forwarded to every child, active or not: an idle tenant
// keeps observing the virtual clock, so a shift that fires the moment its
// phase begins timestamps itself correctly.

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/mem"
)

// composite is the contract every combinator implementation satisfies.
// The exported constructors return it promoted to a plain Source, wrapped
// in shiftComposite when a child can shift, so the ShiftSource interface
// is present exactly when shifts can actually happen — interface presence
// is what AsBatchSource, the trace recorder, and the simulator key on.
type composite interface {
	BatchSource
	ClockFree() bool
	Err() error
	Close() error
	childShiftTime() int64
}

// shiftComposite adds the ShiftSource interface to a composite whose
// children include at least one ShiftSource.
type shiftComposite struct{ composite }

// ShiftTime implements ShiftSource with the latest child shift time.
func (s shiftComposite) ShiftTime() int64 { return s.composite.childShiftTime() }

// promote returns c as the narrowest honest interface: ShiftSource-capable
// composites grow a ShiftTime method, the rest stay plain Sources.
func promote(c composite, shifty bool) Source {
	if shifty {
		return shiftComposite{c}
	}
	return c
}

// multiBase carries the child bookkeeping every combinator shares.
type multiBase struct {
	name     string
	srcs     []Source
	numPages int
	// shifty records a ShiftSource child: batches then degrade to one op
	// per call, because a composite cannot know a child's shift schedule
	// and an op generated ahead of its ticks would timestamp a shift with
	// a stale clock (see AsBatchSource).
	shifty bool
	// clockFree records that every child declared itself clock-free at
	// construction; the composite's own scheduling is op-driven, so the
	// conjunction is the composite's report.
	clockFree bool
}

func newMultiBase(name string, srcs []Source, numPages int) multiBase {
	b := multiBase{name: name, srcs: srcs, numPages: numPages, clockFree: true}
	for _, s := range srcs {
		if _, ok := s.(ShiftSource); ok {
			b.shifty = true
		}
		if cf, ok := s.(ClockFree); !ok || !cf.ClockFree() {
			b.clockFree = false
		}
	}
	return b
}

// Name implements Source.
func (b *multiBase) Name() string { return b.name }

// NumPages implements Source.
func (b *multiBase) NumPages() int { return b.numPages }

// AdvanceTime implements Source, forwarding the clock to every child so
// idle tenants stay current (see the package comment on compose.go).
func (b *multiBase) AdvanceTime(now int64) {
	for _, s := range b.srcs {
		s.AdvanceTime(now)
	}
}

// ClockFree implements the marker from the construction-time conjunction.
func (b *multiBase) ClockFree() bool { return b.clockFree }

// Err returns the first latched child stream error, so a composition over
// trace replays cannot masquerade a truncated input as a clean run.
func (b *multiBase) Err() error {
	for _, s := range b.srcs {
		if es, ok := s.(interface{ Err() error }); ok {
			if err := es.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close implements io.Closer, closing every child that holds resources
// (trace replays) and returning the first failure.
func (b *multiBase) Close() error {
	var first error
	for _, s := range b.srcs {
		if c, ok := s.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// childShiftTime reports the latest child shift (-1 before any fires).
// Virtual time is monotonic and shifts stamp the current clock, so the
// maximum is always the most recent change.
func (b *multiBase) childShiftTime() int64 {
	t := int64(-1)
	for _, s := range b.srcs {
		if ss, ok := s.(ShiftSource); ok {
			if st := ss.ShiftTime(); st > t {
				t = st
			}
		}
	}
	return t
}

// Weighted pairs one tenant of a Mix with its share of operations.
type Weighted struct {
	// Source produces the tenant's stream.
	Source Source
	// Weight is the tenant's relative share of operations; any positive
	// value works, shares are weight/sum(weights).
	Weight float64
}

// mixSource interleaves N tenants by smooth weighted round-robin.
type mixSource struct {
	multiBase
	w    []float64
	cur  []float64
	wsum float64
	base []mem.PageID // per-tenant page offset into the combined space
}

// NewMix composes two or more tenants into one workload. Operations
// interleave by smooth weighted round-robin — a deterministic schedule
// (no RNG) that spreads each tenant's turns evenly at its weight's rate —
// and each tenant's pages are remapped into a private range of the
// combined page space (tenant i occupies [sum of earlier NumPages, +own)),
// so tenants never alias and the composite models true multi-tenancy.
// Its name is "mix(w*child,...)".
func NewMix(parts ...Weighted) (Source, error) {
	if len(parts) < 2 {
		return nil, fmt.Errorf("trace: a mix needs at least two tenants, got %d", len(parts))
	}
	srcs := make([]Source, len(parts))
	w := make([]float64, len(parts))
	base := make([]mem.PageID, len(parts))
	wsum := 0.0
	pages := 0
	for i, p := range parts {
		if p.Source == nil {
			return nil, fmt.Errorf("trace: mix tenant %d has no source", i)
		}
		if !(p.Weight > 0) || math.IsInf(p.Weight, 1) {
			return nil, fmt.Errorf("trace: mix tenant %d weight must be a positive finite number, got %v", i, p.Weight)
		}
		srcs[i] = p.Source
		w[i] = p.Weight
		wsum += p.Weight
		base[i] = mem.PageID(pages)
		n := p.Source.NumPages()
		if n <= 0 {
			return nil, fmt.Errorf("trace: mix tenant %d (%s) has a non-positive page space", i, p.Source.Name())
		}
		if pages > math.MaxInt-n {
			return nil, fmt.Errorf("trace: mix page spaces overflow when combined")
		}
		pages += n
	}
	labels := make([]string, len(srcs))
	for i := range srcs {
		labels[i] = strconv.FormatFloat(w[i], 'g', -1, 64) + "*" + srcs[i].Name()
	}
	m := &mixSource{
		multiBase: newMultiBase("mix("+strings.Join(labels, ",")+")", srcs, pages),
		w:         w,
		cur:       make([]float64, len(parts)),
		wsum:      wsum,
		base:      base,
	}
	return promote(m, m.shifty), nil
}

// pick advances the smooth weighted round-robin by one turn: every
// tenant's current score grows by its weight, the highest score (lowest
// index on ties) wins the turn and pays the weight sum back. The schedule
// is exactly proportional over any window of sum-of-integer-weight turns
// and needs no randomness, so mixes are deterministic by construction.
func (m *mixSource) pick() int {
	bi := 0
	best := math.Inf(-1)
	for i := range m.cur {
		m.cur[i] += m.w[i]
		if m.cur[i] > best {
			best, bi = m.cur[i], i
		}
	}
	m.cur[bi] -= m.wsum
	return bi
}

// NextOp implements Source: one turn of the schedule, with the winning
// tenant's pages remapped into its private range.
func (m *mixSource) NextOp(dst []Access) []Access {
	j := m.pick()
	n := len(dst)
	dst = m.srcs[j].NextOp(dst)
	if off := m.base[j]; off != 0 {
		for i := n; i < len(dst); i++ {
			dst[i].Page += off
		}
	}
	return dst
}

// NextBatch implements BatchSource by running the schedule op by op —
// the mix's turn order interleaves tenants too finely for child batches
// to pay off, and per-op fetching is bit-identical to the single-op
// schedule by construction. With a ShiftSource child the batch degrades
// to one op per call (see multiBase.shifty).
func (m *mixSource) NextBatch(dst []Access, max int) []Access {
	if m.shifty && max > 1 {
		max = 1
	}
	for k := 0; k < max; k++ {
		n := len(dst)
		dst = m.NextOp(dst)
		if len(dst) == n {
			break // a dead child stream ends the batch
		}
		dst[len(dst)-1].EndOp = true
	}
	return dst
}

// Stage is one phase of a NewPhases composition.
type Stage struct {
	// Source produces the stage's stream.
	Source Source
	// Ops is how many operations the stage runs before the next one
	// takes over. It must be positive for every stage but the last, and
	// zero for the last: the final stage runs until the simulation ends
	// (Sources are infinite).
	Ops int64
}

// phasesSource runs its stages back to back on an op-count schedule.
type phasesSource struct {
	multiBase
	bs    []BatchSource
	quota []int64
	idx   int
	rem   int64
}

// NewPhases composes two or more stages into one workload that switches
// sources at fixed operation counts — the canonical model of a phase-
// changing application (compute phase, then serving phase, ...). All
// stages share one address space: the composite's page space is the
// largest child's, and pages are not remapped, so a later phase revisits
// the same addresses a hotness tracker learned in an earlier one. Its
// name is "phases(child@ops,...,child)".
func NewPhases(stages ...Stage) (Source, error) {
	if len(stages) < 2 {
		return nil, fmt.Errorf("trace: phases need at least two stages, got %d", len(stages))
	}
	srcs := make([]Source, len(stages))
	bs := make([]BatchSource, len(stages))
	quota := make([]int64, len(stages))
	pages := 0
	for i, st := range stages {
		if st.Source == nil {
			return nil, fmt.Errorf("trace: phase stage %d has no source", i)
		}
		last := i == len(stages)-1
		if !last && st.Ops <= 0 {
			return nil, fmt.Errorf("trace: phase stage %d (%s) needs a positive op count", i, st.Source.Name())
		}
		if last && st.Ops != 0 {
			return nil, fmt.Errorf("trace: the final phase runs until the simulation ends; drop its op count (%d)", st.Ops)
		}
		srcs[i] = st.Source
		bs[i] = AsBatchSource(st.Source)
		quota[i] = st.Ops
		if n := st.Source.NumPages(); n > pages {
			pages = n
		}
	}
	parts := make([]string, len(stages))
	for i, st := range stages {
		parts[i] = st.Source.Name()
		if i < len(stages)-1 {
			parts[i] += "@" + strconv.FormatInt(st.Ops, 10)
		}
	}
	p := &phasesSource{
		multiBase: newMultiBase("phases("+strings.Join(parts, ",")+")", srcs, pages),
		bs:        bs,
		quota:     quota,
		rem:       quota[0],
	}
	return promote(p, p.shifty), nil
}

// advance moves to the next stage when the current one's quota is spent.
// A stage whose source died (empty ops) never spends its quota, so a
// failed trace replay pins the composition on the erroring stage and the
// latched Err surfaces — phases never silently skip a broken tenant.
func (p *phasesSource) advance() {
	for p.idx < len(p.srcs)-1 && p.rem <= 0 {
		p.idx++
		p.rem = p.quota[p.idx]
	}
}

// NextOp implements Source from the active stage.
func (p *phasesSource) NextOp(dst []Access) []Access {
	p.advance()
	n := len(dst)
	dst = p.srcs[p.idx].NextOp(dst)
	if len(dst) > n && p.idx < len(p.srcs)-1 {
		p.rem--
	}
	return dst
}

// countOps counts the operation boundaries in a batch extension.
func countOps(accs []Access) int {
	n := 0
	for i := range accs {
		if accs[i].EndOp {
			n++
		}
	}
	return n
}

// NextBatch implements BatchSource by delegating whole sub-batches to the
// active stage — phases run one source for long stretches, so child
// batching pays off here. A stage that returns fewer ops than asked ended
// its batch at a clock-sensitive boundary (a pending shift) or died; the
// composite then ends its own batch too, so the simulator drains and
// delivers every pending tick before the stage is asked again — exactly
// the re-request discipline the BatchSource contract prescribes. A spent
// quota ends the batch likewise while a child can shift: the next stage's
// first op may be its shifting op, which must open a batch of its own.
func (p *phasesSource) NextBatch(dst []Access, max int) []Access {
	for max > 0 {
		p.advance()
		last := p.idx == len(p.srcs)-1
		ask := max
		if !last && int64(ask) > p.rem {
			ask = int(p.rem)
		}
		n := len(dst)
		dst = p.bs[p.idx].NextBatch(dst, ask)
		made := countOps(dst[n:])
		if !last {
			p.rem -= int64(made)
		}
		max -= made
		if made < ask || p.shifty && !last && p.rem == 0 {
			return dst
		}
	}
	return dst
}

// repeatSource captures its child's first ops operations, then loops them.
type repeatSource struct {
	multiBase
	loop   int64
	buf    []Access // captured accesses; EndOp marks op boundaries
	starts []int    // buf index of each captured op's start, plus end sentinel
	pos    int      // replay cursor (op index)
}

// NewRepeat captures src's first ops operations as they are first drawn
// and replays them in a loop forever after — a deterministic way to turn
// a long generator into a short periodic working set (and the composition
// analogue of a trace replay's wrap-around). The capture buffer holds the
// whole prefix in memory; size ops accordingly. Its name is
// "repeat(child@ops)".
func NewRepeat(src Source, ops int64) (Source, error) {
	if src == nil {
		return nil, fmt.Errorf("trace: repeat needs a source")
	}
	if ops <= 0 {
		return nil, fmt.Errorf("trace: repeat needs a positive op count, got %d", ops)
	}
	r := &repeatSource{
		multiBase: newMultiBase("repeat("+src.Name()+"@"+strconv.FormatInt(ops, 10)+")", []Source{src}, src.NumPages()),
		loop:      ops,
		starts:    []int{0},
	}
	return promote(r, r.shifty), nil
}

// captured reports how many ops the loop buffer holds so far.
func (r *repeatSource) captured() int64 { return int64(len(r.starts)) - 1 }

// captureOne draws one op from the child into both dst and the loop
// buffer; it reports whether the child produced anything.
func (r *repeatSource) captureOne(dst []Access) ([]Access, bool) {
	n := len(dst)
	dst = r.srcs[0].NextOp(dst)
	if len(dst) == n {
		return dst, false
	}
	r.buf = append(r.buf, dst[n:]...)
	r.buf[len(r.buf)-1].EndOp = true
	r.starts = append(r.starts, len(r.buf))
	return dst, true
}

// NextOp implements Source: capture until the loop is full, then replay.
func (r *repeatSource) NextOp(dst []Access) []Access {
	if r.captured() < r.loop {
		dst, _ = r.captureOne(dst)
		return dst
	}
	lo, hi := r.starts[r.pos], r.starts[r.pos+1]
	if r.pos++; int64(r.pos) >= r.loop {
		r.pos = 0
	}
	dst = append(dst, r.buf[lo:hi]...)
	// Single-op fetches leave EndOp false (the Access contract); the loop
	// buffer carries it set for the replay bulk path.
	dst[len(dst)-1].EndOp = false
	return dst
}

// NextBatch implements BatchSource. The capture phase draws per-op from
// the child — one op per call while the child can shift, like every
// combinator — and the replay phase bulk-copies from the loop buffer,
// which is clock-independent by construction and so always batch-safe.
func (r *repeatSource) NextBatch(dst []Access, max int) []Access {
	if r.shifty && max > 1 && r.captured() < r.loop {
		max = 1
	}
	for max > 0 {
		if r.captured() < r.loop {
			var ok bool
			dst, ok = r.captureOne(dst)
			if !ok {
				return dst
			}
			dst[len(dst)-1].EndOp = true
			max--
			continue
		}
		take := int64(max)
		if rem := r.loop - int64(r.pos); take > rem {
			take = rem
		}
		lo, hi := r.starts[r.pos], r.starts[int64(r.pos)+take]
		dst = append(dst, r.buf[lo:hi]...)
		r.pos += int(take)
		if int64(r.pos) == r.loop {
			r.pos = 0
		}
		max -= int(take)
	}
	return dst
}

// transformSource applies an affine page transform (page*mul + add) to a
// child's stream — Offset and Scale share it.
type transformSource struct {
	multiBase
	bs  BatchSource
	mul mem.PageID
	add mem.PageID
}

// NewOffset shifts every page of src up by pages, growing the page space
// by the same amount — the building block for placing tenants at chosen
// addresses when Mix's automatic remapping is not wanted. Its name is
// "offset(child+pages)".
func NewOffset(src Source, pages int64) (Source, error) {
	if src == nil {
		return nil, fmt.Errorf("trace: offset needs a source")
	}
	if pages < 0 {
		return nil, fmt.Errorf("trace: offset must be non-negative, got %d", pages)
	}
	if int64(src.NumPages()) > math.MaxInt-pages {
		return nil, fmt.Errorf("trace: offset %d overflows the page space", pages)
	}
	t := &transformSource{
		multiBase: newMultiBase("offset("+src.Name()+"+"+strconv.FormatInt(pages, 10)+")", []Source{src}, src.NumPages()+int(pages)),
		bs:        AsBatchSource(src),
		mul:       1,
		add:       mem.PageID(pages),
	}
	return promote(t, t.shifty), nil
}

// NewScale strides src's pages by factor (page p becomes p*factor),
// growing the page space factor-fold — the same access pattern spread
// over a larger, sparser footprint, which is how huge-page and metadata
// scaling studies stress capacity without changing locality structure.
// Its name is "scale(factor*child)".
func NewScale(src Source, factor int64) (Source, error) {
	if src == nil {
		return nil, fmt.Errorf("trace: scale needs a source")
	}
	if factor < 1 {
		return nil, fmt.Errorf("trace: scale factor must be at least 1, got %d", factor)
	}
	if n := int64(src.NumPages()); n > math.MaxInt/factor {
		return nil, fmt.Errorf("trace: scale factor %d overflows the page space", factor)
	}
	t := &transformSource{
		multiBase: newMultiBase("scale("+strconv.FormatInt(factor, 10)+"*"+src.Name()+")", []Source{src}, src.NumPages()*int(factor)),
		bs:        AsBatchSource(src),
		mul:       mem.PageID(factor),
		add:       0,
	}
	return promote(t, t.shifty), nil
}

// apply rewrites the pages of a freshly appended stream section.
func (t *transformSource) apply(accs []Access) {
	if t.mul == 1 && t.add == 0 {
		return
	}
	for i := range accs {
		accs[i].Page = accs[i].Page*t.mul + t.add
	}
}

// NextOp implements Source: the child's op with transformed pages.
func (t *transformSource) NextOp(dst []Access) []Access {
	n := len(dst)
	dst = t.srcs[0].NextOp(dst)
	t.apply(dst[n:])
	return dst
}

// NextBatch implements BatchSource by transforming one child batch per
// call. The transform is stateless, so the child's own batch discipline
// (native capping before shifts, the adapter's one-op degradation for
// unknown ShiftSources) passes through untouched, and an under-filled
// child batch under-fills this one — callers simply request again.
func (t *transformSource) NextBatch(dst []Access, max int) []Access {
	n := len(dst)
	dst = t.bs.NextBatch(dst, max)
	t.apply(dst[n:])
	return dst
}

// Interface conformance, including the conditional shift promotion.
var (
	_ BatchSource = (*mixSource)(nil)
	_ BatchSource = (*phasesSource)(nil)
	_ BatchSource = (*repeatSource)(nil)
	_ BatchSource = (*transformSource)(nil)
	_ BatchSource = shiftComposite{}
	_ ShiftSource = shiftComposite{}
	_ io.Closer   = (*multiBase)(nil)
)
