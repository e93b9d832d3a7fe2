package tracefile

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/trace"
)

// Control-record subtypes (the v1 body's tag-0 records).
const (
	ctlTime  = 0x01 // virtual-time mark
	ctlShift = 0x02 // distribution-shift mark
	ctlEnd   = 0x03 // end of trace, with op/access counts
)

// Writer serializes an op stream into the version-1 format. It is
// streamable — records hit the underlying writer as they are produced,
// nothing seeks back — and single-threaded, like the Source contract it
// mirrors. Close writes the end record; a file missing it reads back as
// truncated.
type Writer struct {
	writerBase
	gz       *gzip.Writer // non-nil when the body is gzip-framed
	prevPage int64
	lastTime int64
	ops      uint64
	accesses uint64
}

// NewWriter starts a trace on w: it writes the magic, version, and header
// immediately. Set gzip to compress the body; Close then finishes the gzip
// stream but never closes w itself.
func NewWriter(w io.Writer, meta Meta, gzipBody bool) (*Writer, error) {
	tw := &Writer{}
	var flags byte
	if gzipBody {
		flags = FlagGzip
	}
	if _, err := tw.start(w, Version, flags, meta); err != nil {
		return nil, err
	}
	if gzipBody {
		tw.gz = gzip.NewWriter(tw.bw)
		tw.body = tw.gz
	}
	return tw, nil
}

// Create opens path and starts a trace in it. A ".gz" suffix selects gzip
// body framing; Close then also closes the file.
func Create(path string, meta Meta) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, meta, strings.HasSuffix(path, ".gz"))
	if err != nil {
		f.Close()
		return nil, err
	}
	w.file = f
	return w, nil
}

// emit appends one record to the body.
func (w *Writer) emit(rec []byte) error {
	if err := w.writable(); err != nil {
		return err
	}
	w.scratch = rec
	return w.write(rec, "record")
}

// WriteOp appends one op record.
func (w *Writer) WriteOp(accs []trace.Access) error {
	if err := w.checkOp(accs); err != nil {
		return err
	}
	rec := binary.AppendUvarint(w.scratch[:0], uint64(len(accs)))
	for _, a := range accs {
		delta := int64(a.Page) - w.prevPage
		v := zigzag(delta) << 1
		if a.Write {
			v |= 1
		}
		rec = binary.AppendUvarint(rec, v)
		w.prevPage = int64(a.Page)
	}
	if err := w.emit(rec); err != nil {
		return err
	}
	w.ops++
	w.accesses += uint64(len(accs))
	return nil
}

// MarkTime appends a virtual-time mark: the simulator's clock at a tick
// boundary, delta-encoded against the previous mark.
func (w *Writer) MarkTime(now int64) error {
	rec := append(w.scratch[:0], 0, ctlTime)
	if err := w.emit(binary.AppendUvarint(rec, zigzag(now-w.lastTime))); err != nil {
		return err
	}
	w.lastTime = now
	return nil
}

// MarkShift appends a distribution-shift mark at virtual time now,
// delta-encoded against the previous time mark.
func (w *Writer) MarkShift(now int64) error {
	rec := append(w.scratch[:0], 0, ctlShift)
	return w.emit(binary.AppendUvarint(rec, zigzag(now-w.lastTime)))
}

// Close writes the end record (op and access counts, so readers detect
// truncation), flushes, and — when Create opened the file — closes it.
// Close is idempotent; it returns the first error the writer hit.
func (w *Writer) Close() error {
	return w.finish(true)
}

// Abort flushes and closes like Close but writes no end record, so the
// file reads back as truncated. Recording paths use it when the run
// failed or was canceled: the partial capture stays inspectable but can
// never pass for a complete trace.
func (w *Writer) Abort() error {
	return w.finish(false)
}

func (w *Writer) finish(endRecord bool) error {
	if w.closed {
		return w.err
	}
	if endRecord {
		rec := append(w.scratch[:0], 0, ctlEnd)
		rec = binary.AppendUvarint(rec, w.ops)
		w.emit(binary.AppendUvarint(rec, w.accesses))
	}
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			w.setErr(fmt.Errorf("tracefile: closing gzip stream: %w", err))
		}
	}
	return w.closeOut()
}
