package tracefile

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Reader replays a version-1 trace as a trace.Source. It satisfies the
// Source contract that workloads are infinite by wrapping around: when the
// end record is reached the body is rewound and the stream restarts, so a
// trace can drive more ops than were recorded. AdvanceTime consumes any
// pending marks but otherwise ignores the clock — the recorded ops
// already embed every time-driven decision the original source made —
// and ShiftTime reports the shift marks captured in the stream, so replay
// preserves the live run's adaptation measurements. On a wrapped replay
// the marks re-apply with their first-pass timestamps (the stream
// silently re-shifts at the wrap boundary), so adaptation metrics are
// only meaningful for replays of at most the recorded length — which is
// what replay paths default to.
//
// Reader is not safe for concurrent use, like every Source. Decode
// failures cannot surface through NextOp (the interface has no error
// return); NextOp instead returns an empty op and the failure is latched
// on Err, which replay paths check after the run.
type Reader struct {
	replayState
	br       *bufio.Reader
	prevPage int64
	ops      uint64
	accesses uint64
}

// newReader starts a v1 replay of s's file at the first body record.
func newReader(s replayState) (*Reader, error) {
	r := &Reader{replayState: s}
	return r, r.rewind()
}

// rewind positions the decoder at the first body record: on open, and
// again each time the replay wraps around.
func (r *Reader) rewind() error {
	if _, err := r.f.Seek(r.hdr.size, io.SeekStart); err != nil {
		return err
	}
	var body io.Reader = r.f
	if r.hdr.flags&FlagGzip != 0 {
		gz, err := gzip.NewReader(r.f)
		if err != nil {
			return fmt.Errorf("%w: bad gzip body: %v", ErrCorrupt, err)
		}
		body = gz
	}
	if r.br == nil {
		r.br = bufio.NewReaderSize(body, 1<<16)
	} else {
		r.br.Reset(body)
	}
	r.prevPage, r.ops, r.accesses = 0, 0, 0
	return nil
}

// AdvanceTime implements trace.Source. Replay ignores the clock itself —
// the recorded ops already embed every time-driven decision — but any
// marks recorded between the current position and the next op are applied
// here, so a shift mark trailing the final op (a shift the live source
// fired on a tick rather than inside an op) is consumed at the same point
// the live run reported it. The drain stops at the end record, leaving
// wrap-around to NextOp.
func (r *Reader) AdvanceTime(int64) {
	for r.err == nil && !r.done {
		b, err := r.br.Peek(2)
		if err != nil {
			// Anywhere short of the end record a valid trace has at least
			// two more bytes, so running out here is a missing end record,
			// not a stopping point to pass over silently.
			r.failRead(err)
			return
		}
		if b[0] != 0 || b[1] == ctlEnd {
			return
		}
		r.br.ReadByte() // the control tag NextOp would otherwise read
		if !r.control() {
			return
		}
	}
}

// failRead latches a body read failure: running out of bytes before the
// end record is truncation, anything else corruption.
func (r *Reader) failRead(err error) {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		r.fail(ErrTruncated)
	} else {
		r.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
	}
}

// readUvarint reads one varint, latching a failure.
func (r *Reader) readUvarint() (uint64, bool) {
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.failRead(err)
		return 0, false
	}
	return v, true
}

// NextOp implements trace.Source: it decodes records until the next op,
// applying control records (time marks, shift marks, end-of-trace) along
// the way. On the end record it wraps around to the first record; on a
// decode failure it latches Err and returns dst unchanged — any caller-
// supplied prefix is preserved and no partial op is appended.
func (r *Reader) NextOp(dst []trace.Access) []trace.Access {
	base := len(dst)
	for {
		if r.done || r.err != nil {
			return dst
		}
		tag, ok := r.readUvarint()
		if !ok {
			return dst
		}
		if tag == 0 {
			if !r.control() {
				return dst
			}
			continue
		}
		if tag > maxOpAccesses {
			r.fail(fmt.Errorf("%w: op with %d accesses exceeds the %d limit",
				ErrCorrupt, tag, maxOpAccesses))
			return dst
		}
		for i := uint64(0); i < tag; i++ {
			v, ok := r.readUvarint()
			if !ok {
				return dst[:base]
			}
			write := v&1 != 0
			page := r.prevPage + unzigzag(v>>1)
			if page < 0 || page >= int64(r.hdr.meta.NumPages) {
				r.fail(fmt.Errorf("%w: page %d outside [0,%d)",
					ErrCorrupt, page, r.hdr.meta.NumPages))
				return dst[:base]
			}
			r.prevPage = page
			dst = append(dst, trace.Access{Page: mem.PageID(page), Write: write})
		}
		r.ops++
		r.accesses += tag
		return dst
	}
}

// NextBatch implements trace.BatchSource: up to max whole ops are decoded
// per call. Shift marks carry their recorded timestamps, so replay is
// batch-safe by construction — decoding ahead of the simulator's clock
// cannot change what ShiftTime eventually reports (callers never request
// past the replayed op count, so the stream position after a run matches
// the single-op schedule exactly). A decode failure ends the batch early;
// an empty extension tells the caller the stream is exhausted for good.
func (r *Reader) NextBatch(dst []trace.Access, max int) []trace.Access {
	for n := 0; n < max; n++ {
		before := len(dst)
		dst = r.NextOp(dst)
		if len(dst) == before {
			break
		}
		dst[len(dst)-1].EndOp = true
	}
	return dst
}

// control handles one tag-0 record; it reports whether reading may go on.
func (r *Reader) control() bool {
	sub, err := r.br.ReadByte()
	if err != nil {
		r.failRead(err)
		return false
	}
	switch sub {
	case ctlTime:
		d, ok := r.readUvarint()
		if !ok {
			return false
		}
		r.markTime(r.lastTime + unzigzag(d))
		return true
	case ctlShift:
		d, ok := r.readUvarint()
		if !ok {
			return false
		}
		r.markShift(r.lastTime + unzigzag(d))
		return true
	case ctlEnd:
		ops, ok := r.readUvarint()
		if !ok {
			return false
		}
		accesses, ok := r.readUvarint()
		if !ok {
			return false
		}
		if ops != r.ops || accesses != r.accesses {
			r.fail(fmt.Errorf("%w: end record counts %d ops/%d accesses, stream had %d/%d",
				ErrCorrupt, ops, accesses, r.ops, r.accesses))
			return false
		}
		// The end record must be the last thing in the body. Probing for
		// EOF also forces gzip to verify its checksum trailer, so a capture
		// chopped inside the gzip framing cannot read back as clean.
		if b, err := r.br.ReadByte(); err == nil {
			r.fail(fmt.Errorf("%w: trailing byte 0x%02x after end record", ErrCorrupt, b))
			return false
		} else if err != io.EOF {
			r.failRead(err)
			return false
		}
		if !r.atEnd(int64(r.ops)) {
			return false
		}
		if err := r.rewind(); err != nil {
			r.fail(err)
			return false
		}
		return true
	default:
		r.fail(fmt.Errorf("%w: unknown control record 0x%02x", ErrCorrupt, sub))
		return false
	}
}
