package tracefile

import (
	"fmt"
	"os"

	"repro/internal/trace"
)

// Convert re-encodes the trace at src into format version (Version or
// Version2) at dst, preserving the header and the replayed stream exactly:
// a replay of the converted file produces byte-identical results to a
// replay of the original. Marks are preserved by their replay effect — the
// clock and shift state before each op — so runs of redundant marks
// between two ops collapse into one; only Stat's mark counts can differ,
// never what a simulation observes. Converting to v1 selects gzip framing
// from a ".gz" suffix like Create; converting to v2 rejects it.
func Convert(src, dst string, version int) error {
	if src == dst {
		return fmt.Errorf("tracefile: converting %s onto itself", src)
	}
	r, err := openReplay(src)
	if err != nil {
		return err
	}
	defer r.Close()
	s := r.state()
	s.wrap = false
	w, err := CreateVersion(dst, r.Header(), version)
	if err != nil {
		return err
	}

	// Emit the marks the reader consumed since the last op: at most one
	// time mark and one shift mark per boundary, carrying the final values
	// — which is all replay keeps of a mark run.
	prevLast, prevSaw, prevShift := int64(0), false, int64(-1)
	emitMarks := func() error {
		lt, saw, st := s.lastTime, s.sawTime, s.shiftAt
		if saw && (!prevSaw || lt != prevLast) {
			if err := w.MarkTime(lt); err != nil {
				return err
			}
		}
		prevLast, prevSaw = lt, saw
		if st != prevShift {
			if err := w.MarkShift(st); err != nil {
				return err
			}
			prevShift = st
		}
		return nil
	}

	abort := func(err error) error {
		w.Abort()
		os.Remove(dst)
		return err
	}
	var buf []trace.Access
	for {
		buf = r.NextOp(buf[:0])
		if len(buf) == 0 {
			break
		}
		if err := emitMarks(); err != nil {
			return abort(err)
		}
		if err := w.WriteOp(buf); err != nil {
			return abort(err)
		}
	}
	if err := r.Err(); err != nil {
		return abort(fmt.Errorf("tracefile: converting %s: %w", src, err))
	}
	// Marks trailing the final op were consumed by the end-of-stream scan.
	if err := emitMarks(); err != nil {
		return abort(err)
	}
	if err := w.Close(); err != nil {
		os.Remove(dst)
		return err
	}
	return nil
}
