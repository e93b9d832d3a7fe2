package tracefile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/trace"
)

// Version 2 is the blocked, columnar trace encoding (docs/TRACE_FORMAT.md
// §Version 2). The header is byte-compatible with v1; the body is a
// sequence of independently decodable blocks — each a small mark section
// followed by a column of fixed-width packed access words — and the file
// ends with a block index footer plus a fixed-size trailer, which locates
// every block and proves the file complete. Version-2 bodies are never
// gzip-framed: the reader needs random access to find the footer.
const Version2 = 2

// v2TrailerMagic ends every complete v2 file, after the footer-length
// word; a file without it reads back as truncated (ErrTruncated), exactly
// like a v1 capture missing its end record.
const v2TrailerMagic = "HTRX"

// v2TrailerLen is the fixed trailer size: a 4-byte little-endian footer
// length followed by v2TrailerMagic.
const v2TrailerLen = 8

// v2 mark kinds (the per-block mark section's first byte).
const (
	v2MarkTime  = 0x01 // virtual-time mark, absolute nanoseconds
	v2MarkShift = 0x02 // distribution-shift mark, absolute nanoseconds
)

// v2 block bounds. Writers flush a block when it reaches v2BlockOps
// operations or would exceed v2BlockMaxAccesses accesses; readers reject
// blocks past the access and mark limits so a corrupt footer cannot drive
// a huge allocation. One op may hold maxOpAccesses accesses, so the
// access bound must leave room for a full op beyond the flush threshold.
const (
	v2BlockOps         = 4096
	v2BlockMaxAccesses = 2 * maxOpAccesses
	v2BlockMaxMarks    = 1 << 20
)

// v2PageLimit bounds the page ids a v2 trace can carry: the packed access
// word stores the page in bits 2+ of a uint32 (trace.UnpackAccess), so
// page spaces past 2^30 pages do not fit and must stay in v1.
const v2PageLimit = 1 << 30

// v2Mark is one mark: kind, the in-block op index it precedes (pos == ops
// means it trails the block's last op), and an absolute virtual time.
type v2Mark struct {
	kind byte
	pos  int64
	ns   int64
}

// v2Block is one block index entry: the block's absolute file offset and
// its op/access counts.
type v2Block struct {
	off      int64
	ops      int64
	accesses int64
}

// WriterV2 serializes an op stream into the version-2 blocked format. Like
// Writer it is streamable — blocks hit the underlying writer as they fill,
// nothing seeks back — and single-threaded. Close appends the block index
// footer and trailer; a file missing them reads back as truncated.
type WriterV2 struct {
	writerBase
	numPages int64
	blockOps int // flush threshold, v2BlockOps (tests shrink it)

	// Current open block.
	words   []byte // packed access words, 4 bytes each
	marks   []v2Mark
	curOps  int64
	curAccs int64

	index  []v2Block
	offset int64 // bytes emitted so far (header + flushed blocks)
}

// NewWriterV2 starts a version-2 trace on w: it writes the magic, version,
// and header immediately. Close never closes w itself.
func NewWriterV2(w io.Writer, meta Meta) (*WriterV2, error) {
	tw := &WriterV2{numPages: int64(meta.NumPages), blockOps: v2BlockOps}
	n, err := tw.start(w, Version2, 0, meta)
	if err != nil {
		return nil, err
	}
	tw.offset = int64(n)
	return tw, nil
}

// CreateV2 opens path and starts a version-2 trace in it; Close then also
// closes the file. A ".gz" suffix is rejected: v2 bodies are read by
// random access (the footer comes first) and never gzip-framed.
func CreateV2(path string, meta Meta) (*WriterV2, error) {
	if strings.HasSuffix(path, ".gz") {
		return nil, fmt.Errorf("tracefile: v2 traces are seekable and never gzip-framed; drop the .gz suffix from %q", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriterV2(f, meta)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.file = f
	return w, nil
}

// WriteOp appends one op to the open block, flushing the block first when
// it is full.
func (w *WriterV2) WriteOp(accs []trace.Access) error {
	if err := w.checkOp(accs); err != nil {
		return err
	}
	if w.curOps >= int64(w.blockOps) || w.curAccs+int64(len(accs)) > v2BlockMaxAccesses {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	for i, a := range accs {
		if a.Page < 0 || int64(a.Page) >= w.numPages {
			return w.setErr(fmt.Errorf("tracefile: page %d outside [0,%d)", a.Page, w.numPages))
		}
		v := uint32(a.Page) << 2
		if a.Write {
			v |= 1
		}
		if i == len(accs)-1 {
			v |= 2 // end-of-op bit delimits the op in the word column
		}
		w.words = binary.LittleEndian.AppendUint32(w.words, v)
	}
	w.curOps++
	w.curAccs += int64(len(accs))
	return nil
}

// MarkTime appends a virtual-time mark before the next op (or trailing the
// block's last op). v2 marks carry absolute nanoseconds, not deltas: each
// block must decode independently.
func (w *WriterV2) MarkTime(now int64) error {
	return w.mark(v2MarkTime, now)
}

// MarkShift appends a distribution-shift mark at virtual time now.
func (w *WriterV2) MarkShift(now int64) error {
	return w.mark(v2MarkShift, now)
}

func (w *WriterV2) mark(kind byte, ns int64) error {
	if err := w.writable(); err != nil {
		return err
	}
	if len(w.marks) >= v2BlockMaxMarks {
		// Marks between two ops land in one block; past the cap the trace
		// is pathological (the replay only keeps the last value anyway).
		return w.setErr(fmt.Errorf("tracefile: more than %d marks in one block", v2BlockMaxMarks))
	}
	w.marks = append(w.marks, v2Mark{kind: kind, pos: w.curOps, ns: ns})
	return nil
}

// flushBlock emits the open block and records its index entry. Marks that
// trail the block's last op stay in it (pos == ops): a mark is never the
// first record of a later block, so replay applies it at the recorded
// point even when the next op is blocks away.
func (w *WriterV2) flushBlock() error {
	if w.curOps == 0 && len(w.marks) == 0 {
		return nil
	}
	rec := binary.AppendUvarint(w.scratch[:0], uint64(w.curOps))
	rec = binary.AppendUvarint(rec, uint64(w.curAccs))
	rec = binary.AppendUvarint(rec, uint64(len(w.marks)))
	for _, m := range w.marks {
		rec = append(rec, m.kind)
		rec = binary.AppendUvarint(rec, uint64(m.pos))
		rec = binary.AppendUvarint(rec, zigzag(m.ns))
	}
	w.scratch = rec
	if err := w.write(rec, "block"); err != nil {
		return err
	}
	if err := w.write(w.words, "block"); err != nil {
		return err
	}
	w.index = append(w.index, v2Block{off: w.offset, ops: w.curOps, accesses: w.curAccs})
	w.offset += int64(len(rec)) + int64(len(w.words))
	w.words = w.words[:0]
	w.marks = w.marks[:0]
	w.curOps, w.curAccs = 0, 0
	return nil
}

// Close flushes the open block, writes the block index footer and trailer
// (which is what makes the file read back as complete), and — when
// CreateV2 opened the file — closes it. Close is idempotent.
func (w *WriterV2) Close() error {
	return w.finish(true)
}

// Abort flushes the blocks written so far but no footer, so the file reads
// back as truncated: inspectable, never mistakable for a complete trace.
func (w *WriterV2) Abort() error {
	return w.finish(false)
}

func (w *WriterV2) finish(footer bool) error {
	if w.closed {
		return w.err
	}
	w.flushBlock()
	if footer && w.err == nil {
		ftr := binary.AppendUvarint(w.scratch[:0], uint64(len(w.index)))
		prev := int64(0)
		for _, b := range w.index {
			ftr = binary.AppendUvarint(ftr, uint64(b.off-prev))
			ftr = binary.AppendUvarint(ftr, uint64(b.ops))
			ftr = binary.AppendUvarint(ftr, uint64(b.accesses))
			prev = b.off
		}
		w.scratch = ftr
		if w.write(ftr, "footer") == nil {
			var tr [v2TrailerLen]byte
			binary.LittleEndian.PutUint32(tr[:4], uint32(len(ftr)))
			copy(tr[4:], v2TrailerMagic)
			w.write(tr[:], "trailer")
		}
	}
	return w.closeOut()
}
