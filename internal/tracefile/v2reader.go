package tracefile

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/trace"
)

// ReaderV2 replays a version-2 trace as a trace.Source. Decoding is
// block-at-a-time: the footer's block index locates each block in the
// file, so the reader loads one block's packed words into memory, serves
// zero-copy packed views of whole op runs out of it, and moves on to the
// next block — the whole trace is never materialized. NextOp and NextBatch
// are decodes of NextPackedView, so there is one fetch path.
//
// Replay semantics match Reader exactly: the source is infinite (the
// stream wraps around at the recorded end), AdvanceTime only consumes
// pending marks, ShiftTime reports the recorded shift marks, and decode
// failures latch on Err while NextOp returns empty ops.
type ReaderV2 struct {
	replayState

	index       []v2Block
	ops         int64 // recorded op total, summed from the index
	footerStart int64

	// Loaded block state.
	blk      int // index of the loaded block, -1 before the first load
	words    []uint32
	opStarts []int32 // word index of each loaded op's start, plus sentinel
	marks    []v2Mark
	markIdx  int
	opInBlk  int64

	buf []byte // block read buffer
}

// OpenV2 opens a version-2 trace and positions the reader at the first op.
// Files whose trailer is missing or unreadable are reported as truncated —
// an aborted capture can never pass for complete.
func OpenV2(path string) (*ReaderV2, error) {
	r, err := openReplay(path)
	if err != nil {
		return nil, err
	}
	if r2, ok := r.(*ReaderV2); ok {
		return r2, nil
	}
	r.Close()
	return nil, fmt.Errorf("tracefile: %s is a version %d trace, not version %d", path, Version, Version2)
}

// newReaderV2 starts a v2 replay of s's file by decoding its block index
// footer; blocks are read as the replay reaches them.
func newReaderV2(s replayState) (*ReaderV2, error) {
	fi, err := s.f.Stat()
	if err != nil {
		return nil, err
	}
	r := &ReaderV2{replayState: s, blk: -1}
	return r, r.parseFooter(fi.Size())
}

// parseFooter locates the footer via the fixed trailer at EOF and decodes
// the block index, validating every entry so a corrupt index can never
// drive an oversized allocation or an out-of-file read.
func (r *ReaderV2) parseFooter(size int64) error {
	headerEnd := r.hdr.size
	if size < headerEnd+v2TrailerLen {
		return fmt.Errorf("%w: v2 trace has no footer", ErrTruncated)
	}
	var tr [v2TrailerLen]byte
	if _, err := r.f.ReadAt(tr[:], size-v2TrailerLen); err != nil {
		return fmt.Errorf("%w: reading trailer: %v", ErrCorrupt, err)
	}
	if string(tr[4:]) != v2TrailerMagic {
		return fmt.Errorf("%w: v2 trace has no footer", ErrTruncated)
	}
	ftrLen := int64(binary.LittleEndian.Uint32(tr[:4]))
	ftrStart := size - v2TrailerLen - ftrLen
	if ftrStart < headerEnd {
		return fmt.Errorf("%w: footer length %d overlaps the header", ErrCorrupt, ftrLen)
	}
	ftr := make([]byte, ftrLen)
	if _, err := r.f.ReadAt(ftr, ftrStart); err != nil {
		return fmt.Errorf("%w: reading footer: %v", ErrCorrupt, err)
	}
	fr := bytes.NewReader(ftr)
	nBlocks, err := binary.ReadUvarint(fr)
	if err != nil || nBlocks > uint64(ftrLen) {
		// Each index entry is at least three bytes, so a block count past
		// the footer's own size is corrupt, not merely large.
		return fmt.Errorf("%w: bad block count in footer", ErrCorrupt)
	}
	index := make([]v2Block, 0, nBlocks)
	prevOff, ops := int64(0), int64(0)
	for i := uint64(0); i < nBlocks; i++ {
		d, err := binary.ReadUvarint(fr)
		if err != nil {
			return fmt.Errorf("%w: short footer", ErrCorrupt)
		}
		bo, err := binary.ReadUvarint(fr)
		if err != nil {
			return fmt.Errorf("%w: short footer", ErrCorrupt)
		}
		ba, err := binary.ReadUvarint(fr)
		if err != nil {
			return fmt.Errorf("%w: short footer", ErrCorrupt)
		}
		off := prevOff + int64(d)
		if off < headerEnd || off >= ftrStart || (len(index) > 0 && off <= prevOff) {
			return fmt.Errorf("%w: block offset %d outside the body", ErrCorrupt, off)
		}
		if ba > v2BlockMaxAccesses || bo > ba || (bo == 0 && ba != 0) {
			return fmt.Errorf("%w: block with %d ops / %d accesses", ErrCorrupt, bo, ba)
		}
		index = append(index, v2Block{off: off, ops: int64(bo), accesses: int64(ba)})
		ops += int64(bo)
		prevOff = off
	}
	if fr.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in footer", ErrCorrupt, fr.Len())
	}
	r.index = index
	r.ops = ops
	r.footerStart = ftrStart
	return nil
}

// Ops returns the recorded op count, from the footer — no body scan.
func (r *ReaderV2) Ops() int64 { return r.ops }

// blockEnd returns the file offset one past block i's last byte.
func (r *ReaderV2) blockEnd(i int) int64 {
	if i+1 < len(r.index) {
		return r.index[i+1].off
	}
	return r.footerStart
}

// parseBlockHeader decodes block i's counts and marks from buf, returning
// the byte offset where the packed words start, or -1 after latching a
// corruption error. Mark positions must be nondecreasing and within the
// block's op count — replay applies marks by position, so an out-of-range
// position has no defined meaning.
func (r *ReaderV2) parseBlockHeader(i int, buf []byte) (wordsAt int64, marks []v2Mark) {
	br := bytes.NewReader(buf)
	blkLen := int64(len(buf))
	bo, err1 := binary.ReadUvarint(br)
	ba, err2 := binary.ReadUvarint(br)
	nm, err3 := binary.ReadUvarint(br)
	if err1 != nil || err2 != nil || err3 != nil {
		r.fail(fmt.Errorf("%w: short block header", ErrCorrupt))
		return -1, nil
	}
	ent := r.index[i]
	if int64(bo) != ent.ops || int64(ba) != ent.accesses {
		r.fail(fmt.Errorf("%w: block %d counts %d ops/%d accesses disagree with the footer's %d/%d",
			ErrCorrupt, i, bo, ba, ent.ops, ent.accesses))
		return -1, nil
	}
	if nm > v2BlockMaxMarks {
		r.fail(fmt.Errorf("%w: block with %d marks", ErrCorrupt, nm))
		return -1, nil
	}
	marks = make([]v2Mark, 0, nm)
	prevPos := int64(0)
	for j := uint64(0); j < nm; j++ {
		kind, err := br.ReadByte()
		if err != nil {
			r.fail(fmt.Errorf("%w: short mark section", ErrCorrupt))
			return -1, nil
		}
		if kind != v2MarkTime && kind != v2MarkShift {
			r.fail(fmt.Errorf("%w: unknown mark kind 0x%02x", ErrCorrupt, kind))
			return -1, nil
		}
		pos, err := binary.ReadUvarint(br)
		if err != nil {
			r.fail(fmt.Errorf("%w: short mark section", ErrCorrupt))
			return -1, nil
		}
		ns, err := binary.ReadUvarint(br)
		if err != nil {
			r.fail(fmt.Errorf("%w: short mark section", ErrCorrupt))
			return -1, nil
		}
		if int64(pos) > ent.ops || int64(pos) < prevPos {
			r.fail(fmt.Errorf("%w: mark position %d out of order in a %d-op block", ErrCorrupt, pos, ent.ops))
			return -1, nil
		}
		prevPos = int64(pos)
		marks = append(marks, v2Mark{kind: kind, pos: int64(pos), ns: unzigzag(ns)})
	}
	return blkLen - int64(br.Len()), marks
}

// loadBlock reads and decodes block i: marks, packed words, and the op
// start index built from the words' end-of-op bits. Every word's page is
// bounds-checked here, so a loaded block is fully validated.
func (r *ReaderV2) loadBlock(i int) bool {
	ent := r.index[i]
	length := r.blockEnd(i) - ent.off
	wantWords := ent.accesses * 4
	if length < wantWords {
		r.fail(fmt.Errorf("%w: block %d spans %d bytes, needs %d for its words", ErrCorrupt, i, length, wantWords))
		return false
	}
	if int64(cap(r.buf)) < length {
		r.buf = make([]byte, length)
	}
	buf := r.buf[:length]
	if _, err := r.f.ReadAt(buf, ent.off); err != nil {
		r.fail(fmt.Errorf("%w: reading block %d: %v", ErrCorrupt, i, err))
		return false
	}
	wordsAt, marks := r.parseBlockHeader(i, buf)
	if wordsAt < 0 {
		return false
	}
	if length-wordsAt != wantWords {
		r.fail(fmt.Errorf("%w: block %d has %d word bytes, header promises %d",
			ErrCorrupt, i, length-wordsAt, wantWords))
		return false
	}
	if int64(cap(r.words)) < ent.accesses {
		r.words = make([]uint32, ent.accesses)
	}
	words := r.words[:ent.accesses]
	if int64(cap(r.opStarts)) < ent.ops+1 {
		r.opStarts = make([]int32, 0, ent.ops+1)
	}
	opStarts := append(r.opStarts[:0], 0)
	raw := buf[wordsAt:]
	for j := range words {
		v := binary.LittleEndian.Uint32(raw[j*4:])
		if int64(v>>2) >= int64(r.hdr.meta.NumPages) {
			r.fail(fmt.Errorf("%w: page %d outside [0,%d)", ErrCorrupt, v>>2, r.hdr.meta.NumPages))
			return false
		}
		words[j] = v
		if v&2 != 0 {
			opStarts = append(opStarts, int32(j+1))
		}
	}
	if int64(len(opStarts))-1 != ent.ops {
		r.fail(fmt.Errorf("%w: block %d delimits %d ops, header promises %d",
			ErrCorrupt, i, len(opStarts)-1, ent.ops))
		return false
	}
	r.words = words
	r.opStarts = opStarts
	r.marks = marks
	r.markIdx = 0
	r.opInBlk = 0
	r.blk = i
	return true
}

// applyMarks consumes marks at positions up to and including upTo, in
// recorded order: time marks set the replay clock, shift marks timestamp
// adaptation exactly like the live run reported it.
func (r *ReaderV2) applyMarks(upTo int64) {
	for ; r.markIdx < len(r.marks) && r.marks[r.markIdx].pos <= upTo; r.markIdx++ {
		if m := r.marks[r.markIdx]; m.kind == v2MarkTime {
			r.markTime(m.ns)
		} else {
			r.markShift(m.ns)
		}
	}
}

// ensureOp positions the reader on the next undelivered op, loading blocks,
// applying due marks, and wrapping around at the recorded end. It returns
// false when no op can be delivered (latched error, or end of a one-pass
// scan).
func (r *ReaderV2) ensureOp() bool {
	for {
		if r.done || r.err != nil {
			return false
		}
		if r.blk >= 0 && r.opInBlk < r.index[r.blk].ops {
			r.applyMarks(r.opInBlk)
			return true
		}
		if r.blk >= 0 {
			// Block exhausted: its trailing marks apply before anything in
			// a later block.
			r.applyMarks(r.index[r.blk].ops)
		}
		next := r.blk + 1
		if next < len(r.index) {
			if !r.loadBlock(next) {
				return false
			}
			continue
		}
		if !r.atEnd(r.Ops()) || !r.loadBlock(0) {
			return false
		}
	}
}

// AdvanceTime implements trace.Source: replay ignores the clock, but marks
// due at the current position (including marks trailing the final op) are
// consumed here, at the same point the live run reported them.
func (r *ReaderV2) AdvanceTime(int64) {
	if r.done || r.err != nil {
		return
	}
	if r.blk < 0 {
		if len(r.index) == 0 || !r.loadBlock(0) {
			return
		}
	}
	r.applyMarks(r.opInBlk)
}

// NextOp implements trace.Source as a one-op NextBatch. The packed words
// carry EndOp bits, but the Source contract says single-op fetches leave
// EndOp false, so the final access's flag is cleared. A decode failure
// latches Err and returns dst unchanged.
func (r *ReaderV2) NextOp(dst []trace.Access) []trace.Access {
	n := len(dst)
	if dst = r.NextBatch(dst, 1); len(dst) > n {
		dst[len(dst)-1].EndOp = false
	}
	return dst
}

// NextBatch implements trace.BatchSource as bulk decodes of packed views:
// up to max whole ops, each op's final access carrying EndOp. It keeps
// fetching across block boundaries until max ops or an empty view, so a
// short batch means the replay has ended or failed.
func (r *ReaderV2) NextBatch(dst []trace.Access, max int) []trace.Access {
	for max > 0 {
		view := r.NextPackedView(max)
		if len(view) == 0 {
			break
		}
		for _, v := range view {
			dst = append(dst, trace.UnpackAccess(v))
			max -= int(v >> 1 & 1)
		}
	}
	return dst
}

// NextPackedView implements trace.PackedViewSource: up to max whole ops
// returned as a read-only view of the loaded block's packed words — no
// copy, no decode. A view never spans a block boundary (so it may hold
// fewer than max ops), and an empty view means a one-pass scan has ended
// or the replay has failed and latched Err.
func (r *ReaderV2) NextPackedView(max int) []uint32 {
	if max <= 0 || !r.ensureOp() {
		return nil
	}
	take := int64(max)
	if rem := r.index[r.blk].ops - r.opInBlk; take > rem {
		take = rem
	}
	// Marks due before any op the view covers are applied now; the caller
	// consumes the whole view before asking again, like a NextBatch.
	r.applyMarks(r.opInBlk + take - 1)
	lo, hi := r.opStarts[r.opInBlk], r.opStarts[r.opInBlk+take]
	r.opInBlk += take
	return r.words[lo:hi]
}
