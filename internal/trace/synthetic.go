package trace

import (
	"repro/internal/mem"
	"repro/internal/xrand"
)

// ZipfSource emits single-page operations with Zipf-distributed popularity
// over a page range, optionally remapping ranks through a permutation so
// different instances (or epochs) hash popularity onto different pages.
type ZipfSource struct {
	name  string
	n     int
	zipf  *xrand.Zipf
	perm  []uint64 // rank -> page
	rng   *xrand.RNG
	write float64
}

// NewZipfSource creates a source over n pages with exponent s.
// writeFrac in [0,1] is the fraction of operations that are stores.
func NewZipfSource(name string, n int, s float64, writeFrac float64, seed uint64) *ZipfSource {
	rng := xrand.New(seed)
	perm := make([]uint64, n)
	for i := range perm {
		perm[i] = uint64(i)
	}
	rng.ShuffleUint64s(perm)
	return &ZipfSource{
		name:  name,
		n:     n,
		zipf:  xrand.NewZipf(rng, s, uint64(n)),
		perm:  perm,
		rng:   rng,
		write: writeFrac,
	}
}

// Name implements Source.
func (z *ZipfSource) Name() string { return z.name }

// NumPages implements Source.
func (z *ZipfSource) NumPages() int { return z.n }

// NextOp implements Source.
func (z *ZipfSource) NextOp(dst []Access) []Access {
	rank := z.zipf.Next()
	w := z.rng.Float64() < z.write
	return append(dst, Access{Page: mem.PageID(z.perm[rank]), Write: w})
}

// NextBatch implements BatchSource: ZipfSource has no time-driven
// behaviour, so it generates max single-access ops back to back.
func (z *ZipfSource) NextBatch(dst []Access, max int) []Access {
	for i := 0; i < max; i++ {
		rank := z.zipf.Next()
		w := z.rng.Float64() < z.write
		dst = append(dst, Access{Page: mem.PageID(z.perm[rank]), Write: w, EndOp: true})
	}
	return dst
}

// AdvanceTime implements Source.
func (z *ZipfSource) AdvanceTime(int64) {}

// Reshuffle remaps which pages are popular, keeping the same skew. frac is
// the fraction of the permutation to rotate: 2/3 reproduces §2.3.2's
// "2/3 of previously hot data are no longer hot".
func (z *ZipfSource) Reshuffle(frac float64) {
	k := int(frac * float64(z.n))
	if k <= 1 {
		return
	}
	// Rotate the top-k ranks' page assignments with fresh pages drawn from
	// the cold tail, so previously-hot pages go cold and cold pages go hot.
	for i := 0; i < k; i++ {
		j := k + z.rng.Intn(z.n-k)
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
}

// ShiftingZipfSource wraps ZipfSource and performs a single Reshuffle after
// a fixed number of operations, reproducing the Fig. 4 / Table 3 adaptation
// scenario (§2.3.2: at a fixed point, 2/3 of previously hot data turn cold).
// Triggering on operation count keeps the schedule deterministic regardless
// of the latency model; the virtual time of the shift is recorded when it
// fires so adaptation time can be measured against it.
type ShiftingZipfSource struct {
	*ZipfSource
	shiftAfter int64 // ops before the shift
	frac       float64
	ops        int64
	shiftedAt  int64
	lastNow    int64
	done       bool
}

// NewShiftingZipfSource creates a read-only Zipf source that rotates frac
// of its hot set after shiftAfter operations.
func NewShiftingZipfSource(name string, n int, s float64, seed uint64, shiftAfter int64, frac float64) *ShiftingZipfSource {
	return &ShiftingZipfSource{
		ZipfSource: NewZipfSource(name, n, s, 0, seed),
		shiftAfter: shiftAfter,
		frac:       frac,
		shiftedAt:  -1,
	}
}

// NextOp implements Source, triggering the shift once the op budget passes.
func (s *ShiftingZipfSource) NextOp(dst []Access) []Access {
	s.ops++
	if !s.done && s.ops >= s.shiftAfter {
		s.Reshuffle(s.frac)
		s.shiftedAt = s.lastNow
		s.done = true
	}
	return s.ZipfSource.NextOp(dst)
}

// NextBatch implements BatchSource. The shift timestamps itself with the
// clock value of the last AdvanceTime before the shifting op, so that op
// must not be generated ahead of the simulator's tick processing: the batch
// is capped to end right before it, making the shifting op the first of its
// own batch — by which point every earlier op's ticks have been delivered,
// exactly as on the single-op schedule.
func (s *ShiftingZipfSource) NextBatch(dst []Access, max int) []Access {
	if !s.done {
		if before := s.shiftAfter - 1 - s.ops; before > 0 && int64(max) > before {
			max = int(before)
		}
	}
	for i := 0; i < max; i++ {
		dst = s.NextOp(dst)
		dst[len(dst)-1].EndOp = true
	}
	return dst
}

// AdvanceTime implements Source, tracking the virtual clock so the shift
// can be timestamped.
func (s *ShiftingZipfSource) AdvanceTime(now int64) { s.lastNow = now }

// ShiftTime implements ShiftSource. It returns -1 until the shift fires.
func (s *ShiftingZipfSource) ShiftTime() int64 { return s.shiftedAt }

// ScanSource sweeps the page space sequentially, the one-time-only access
// pattern §7 discusses (scanning pollutes recency-based systems' fast tier).
type ScanSource struct {
	name string
	n    int
	pos  uint64
}

// NewScanSource creates a sequential sweep over n pages.
func NewScanSource(name string, n int) *ScanSource {
	return &ScanSource{name: name, n: n}
}

// Name implements Source.
func (s *ScanSource) Name() string { return s.name }

// NumPages implements Source.
func (s *ScanSource) NumPages() int { return s.n }

// NextOp implements Source.
func (s *ScanSource) NextOp(dst []Access) []Access {
	p := mem.PageID(s.pos % uint64(s.n))
	s.pos++
	return append(dst, Access{Page: p})
}

// NextBatch implements BatchSource: a scan is position-driven only.
func (s *ScanSource) NextBatch(dst []Access, max int) []Access {
	for i := 0; i < max; i++ {
		p := mem.PageID(s.pos % uint64(s.n))
		s.pos++
		dst = append(dst, Access{Page: p, EndOp: true})
	}
	return dst
}

// AdvanceTime implements Source.
func (s *ScanSource) AdvanceTime(int64) {}

// ClockFree implements the marker: Zipf draws never consult the clock —
// ShiftingZipfSource included, whose shift is op-count-triggered and only
// stamped with the clock.
func (z *ZipfSource) ClockFree() bool { return true }

// ClockFree implements the marker: a scan is position-driven only.
func (s *ScanSource) ClockFree() bool { return true }
