// Package tracefile defines the on-disk trace format that makes any access
// stream a first-class workload: a versioned, streamable binary encoding of
// trace.Source op streams (docs/TRACE_FORMAT.md is the byte-level spec).
// Writer serializes ops as they are produced, Recorder tees a live source to
// a Writer during a simulation, and Reader replays a file as a trace.Source,
// so a captured run can be re-run bit-for-bit — byte-identical sweep JSON —
// on another machine, or a trace produced by an external tool can be swept
// like any registered workload (the registry resolves "trace:<path>" names
// through Open).
//
// The format is magic "HTRC" + one version byte + one flags byte, a varint
// header carrying the workload name, page-space size, and seed, then a
// version-specific body. Version 1 bodies are streams (optionally
// gzip-framed) of varint-delta-encoded op records interleaved with
// virtual-time marks, distribution-shift marks, and a terminating end
// record whose op/access counts detect truncation. Version 2 bodies are
// blocked and columnar — per-block mark sections followed by fixed-width
// packed access words, with a block index footer — so a reader serves
// zero-copy packed batch views a block at a time without materializing the
// trace. Both versions replay identically.
//
// Only the two bodies are version-specific. The header codec, the replay
// state both readers keep (clock, shift marks, wrap-around, latched error),
// the Stat scan and the writers' scaffolding are written once, here.
package tracefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

// Magic opens every trace file, before the version byte.
const Magic = "HTRC"

// Version is the original streamed format generation; Version2 (v2.go) is
// the blocked, columnar generation. Readers must reject versions they do
// not know: any incompatible change bumps the version byte.
const Version = 1

// Header flag bits.
const (
	// FlagGzip marks a gzip-compressed body (everything after the header).
	FlagGzip = 1 << 0
	// FlagShift marks a trace captured from a shift-capable source
	// (trace.ShiftSource); shift marks may appear in the body.
	FlagShift = 1 << 1
)

// maxNameLen bounds the header's workload-name field so a corrupt length
// cannot drive a huge allocation.
const maxNameLen = 4096

// maxOpAccesses bounds one op's access count for the same reason.
const maxOpAccesses = 1 << 20

// maxHeaderLen bounds the whole encoded header: magic, version, flags,
// three varints and a name of at most maxNameLen bytes.
const maxHeaderLen = len(Magic) + 2 + 3*binary.MaxVarintLen64 + maxNameLen

// Errors the reading side reports. Decode failures wrap ErrCorrupt;
// a body that ends without an end record wraps ErrTruncated.
var (
	ErrCorrupt   = errors.New("tracefile: corrupt trace")
	ErrTruncated = errors.New("tracefile: truncated trace (no end record)")
)

// versionLimits returns the flag bits version v's body grammar defines and
// the largest page space it can address; ok is false for a version this
// build cannot read. A flag outside the mask could change the body
// encoding, so decoding under it would produce garbage, not ops.
func versionLimits(v byte) (flags byte, maxPages uint64, ok bool) {
	switch v {
	case Version:
		return FlagGzip | FlagShift, 1 << 40, true
	case Version2:
		// v2 bodies are never gzip-framed, and its packed words hold
		// 30-bit page ids.
		return FlagShift, v2PageLimit, true
	}
	return 0, 0, false
}

// Meta is the trace header: everything a reader needs to stand in for the
// recorded workload.
type Meta struct {
	// Name is the recorded workload's instance name; the Reader reports it
	// so replayed results label themselves exactly like the live run.
	Name string
	// NumPages is the dense 4 KB page-space size the trace addresses.
	NumPages int
	// Seed is the seed the recorded workload instance was built with
	// (informational: replay does not re-run the generator).
	Seed uint64
	// Shift records whether the source was a trace.ShiftSource.
	Shift bool
}

// MetaOf derives a header from a live source and the seed it was built
// with. Re-recording a replay copies the original capture's header
// verbatim — a replay's seed is the original instance's, and it
// implements ShiftSource for every trace, so deriving the fields from the
// interface would stamp wrong provenance.
func MetaOf(src trace.Source, seed uint64) Meta {
	if r, ok := src.(interface{ Header() Meta }); ok {
		return r.Header()
	}
	_, shift := src.(trace.ShiftSource)
	return Meta{Name: src.Name(), NumPages: src.NumPages(), Seed: seed, Shift: shift}
}

// header is the prefix every version shares (docs/TRACE_FORMAT.md
// §Header): version and flags bytes, the Meta fields, and the encoded
// length, which is where the body starts.
type header struct {
	version, flags byte
	meta           Meta
	size           int64
}

// appendHeader encodes a header onto dst.
func appendHeader(dst []byte, version, flags byte, m Meta) []byte {
	if m.Shift {
		flags |= FlagShift
	}
	dst = append(append(dst, Magic...), version, flags)
	dst = binary.AppendUvarint(dst, uint64(len(m.Name)))
	dst = append(dst, m.Name...)
	dst = binary.AppendUvarint(dst, uint64(m.NumPages))
	return binary.AppendUvarint(dst, m.Seed)
}

// readHeader decodes and validates the header at the start of f, including
// the version's flag bits and page-space bound, so a reader only has its
// body left to check.
func readHeader(f *os.File) (header, error) {
	head := make([]byte, maxHeaderLen)
	n, err := f.ReadAt(head, 0)
	if err != nil && err != io.EOF {
		return header{}, fmt.Errorf("tracefile: reading header: %w", err)
	}
	hr := bytes.NewReader(head[:n])
	var pre [len(Magic) + 2]byte
	if _, err := io.ReadFull(hr, pre[:]); err != nil {
		return header{}, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(pre[:len(Magic)]) != Magic {
		return header{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, pre[:len(Magic)])
	}
	h := header{version: pre[len(Magic)], flags: pre[len(Magic)+1]}
	known, maxPages, ok := versionLimits(h.version)
	if !ok {
		return header{}, fmt.Errorf("tracefile: unsupported version %d (this build reads versions %d and %d)",
			h.version, Version, Version2)
	}
	if rest := h.flags &^ known; rest != 0 {
		return header{}, fmt.Errorf("tracefile: unsupported header flags %#02x for version %d", rest, h.version)
	}
	nameLen, err := binary.ReadUvarint(hr)
	if err != nil || nameLen > maxNameLen {
		return header{}, fmt.Errorf("%w: bad workload-name length", ErrCorrupt)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(hr, name); err != nil {
		return header{}, fmt.Errorf("%w: short workload name: %v", ErrCorrupt, err)
	}
	numPages, err := binary.ReadUvarint(hr)
	if err != nil || numPages == 0 || numPages > maxPages {
		return header{}, fmt.Errorf("%w: bad page-space size", ErrCorrupt)
	}
	seed, err := binary.ReadUvarint(hr)
	if err != nil {
		return header{}, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	h.meta = Meta{Name: string(name), NumPages: int(numPages), Seed: seed, Shift: h.flags&FlagShift != 0}
	h.size = int64(n - hr.Len())
	return h, nil
}

// zigzag maps a signed delta onto an unsigned varint-friendly value:
// 0,-1,1,-2,2 ... become 0,1,2,3,4 ...
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Replay is the read side of a trace file, any format version: a workload
// source plus the replay-specific surface (header access, wrap counting,
// latched errors). Open returns one; version-specific capabilities —
// ReaderV2's zero-copy packed views — are reached by type assertion.
type Replay interface {
	trace.Source
	// ShiftTime reports the stream's shift marks (trace.ShiftSource).
	ShiftTime() int64
	// Header returns the trace's header fields.
	Header() Meta
	// Path returns the file being replayed.
	Path() string
	// Loops reports how many times the replay wrapped around.
	Loops() int
	// Err returns the first failure latched by the replay.
	Err() error
	// Close releases the underlying file.
	Close() error
}

// Both readers implement the full replay surface.
var (
	_ replayer          = (*Reader)(nil)
	_ trace.BatchSource = (*Reader)(nil)
	_ replayer          = (*ReaderV2)(nil)
	_ trace.BatchSource = (*ReaderV2)(nil)
)

// replayer is a Replay whose shared state Stat and Convert can read.
type replayer interface {
	Replay
	state() *replayState
}

// replayState is everything a reader keeps besides its decode position:
// the file and its header, the replay clock that marks drive, wrap-around,
// and the latched first error. Both readers embed it, so its exported
// methods are their version-independent Replay surface.
type replayState struct {
	path string
	f    *os.File
	hdr  header

	lastTime int64 // latest time mark, 0 before the first
	sawTime  bool
	shiftAt  int64 // latest shift mark, -1 before the first
	shifts   int

	// wrap controls exhaustion: Open sets it so the source is infinite;
	// Stat and Convert clear it to scan exactly one pass.
	wrap  bool
	loops int
	done  bool // end of a one-pass scan, or a latched error
	err   error
}

// state reaches the shared fields through a replayer (Stat, Convert).
func (s *replayState) state() *replayState { return s }

// Header returns the trace's header fields.
func (s *replayState) Header() Meta { return s.hdr.meta }

// Path returns the file being replayed; recording paths use it to refuse
// overwriting the trace being replayed.
func (s *replayState) Path() string { return s.path }

// Name implements trace.Source with the recorded workload's name, so
// replayed results label themselves exactly like the live run.
func (s *replayState) Name() string { return s.hdr.meta.Name }

// NumPages implements trace.Source from the header.
func (s *replayState) NumPages() int { return s.hdr.meta.NumPages }

// ShiftTime implements trace.ShiftSource from the stream's shift marks:
// -1 until one is consumed, then the latest mark's virtual time — the
// same progression the live source reported.
func (s *replayState) ShiftTime() int64 { return s.shiftAt }

// Loops reports how many times the replay wrapped around.
func (s *replayState) Loops() int { return s.loops }

// Err returns the first failure the replay hit: ErrTruncated when the body
// ended early, ErrCorrupt wraps for undecodable records or count
// mismatches, or an I/O error.
func (s *replayState) Err() error { return s.err }

// Close releases the underlying file. The reader is unusable afterwards.
func (s *replayState) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	s.done = true
	return err
}

// fail latches the first error; NextOp returns empty ops from then on.
func (s *replayState) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.done = true
}

// markTime and markShift apply one mark, by absolute virtual time.
func (s *replayState) markTime(ns int64)  { s.lastTime, s.sawTime = ns, true }
func (s *replayState) markShift(ns int64) { s.shiftAt, s.shifts = ns, s.shifts+1 }

// atEnd is the end of the recorded stream, which held ops ops. A one-pass
// scan stops; a replay wraps around (the Source contract says workloads
// are infinite) with its clock reset, unless the trace has no ops, which
// would spin forever and latches an error instead. It reports whether the
// reader should rewind to its first op.
func (s *replayState) atEnd(ops int64) bool {
	if !s.wrap {
		s.done = true
		return false
	}
	if ops == 0 {
		s.fail(fmt.Errorf("tracefile: %s has no op records to replay", s.path))
		return false
	}
	s.loops++
	s.lastTime = 0
	return true
}

// Open reads path's header and opens it with the matching reader — a v1
// *Reader or a v2 *ReaderV2, both presented as Replay. Unknown versions
// are an error: decoding a future format would produce garbage, not ops.
func Open(path string) (Replay, error) {
	return openReplay(path)
}

// openReplay is Open with the shared state reachable.
func openReplay(path string) (replayer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	h, err := readHeader(f)
	if err == nil {
		s := replayState{path: path, f: f, hdr: h, shiftAt: -1, wrap: true}
		var r replayer
		if h.version == Version {
			r, err = newReader(s)
		} else {
			r, err = newReaderV2(s)
		}
		if err == nil {
			return r, nil
		}
	}
	f.Close()
	return nil, err
}

// Info summarizes one trace file; the htiersim -trace-info path and the
// replay default-op-count logic use it.
type Info struct {
	Meta
	// Version is the file's format generation (Version or Version2).
	Version int
	// Compressed reports gzip body framing (v1 only; v2 never compresses).
	Compressed bool
	// Ops and Accesses count the recorded stream.
	Ops      int64
	Accesses int64
	// Shifts is the number of shift marks; ShiftNs is the last one's
	// virtual time (-1 when none).
	Shifts  int
	ShiftNs int64
	// EndNs is the last virtual-time mark (-1 when the trace has none).
	EndNs int64
	// Clean reports a well-formed end whose counts match the stream.
	Clean bool
}

// Stat scans path end to end and summarizes it, whatever its version.
// Unlike Open's replay mode it never wraps around, and it decodes every
// op, so every page is bounds-checked; a truncated or corrupt body yields
// Clean == false, the counts seen so far, and the decode error. A v2 trace
// is scanned through its packed views: ops are counted as end-of-op bits
// and accesses as view lengths, with no access decoded.
func Stat(path string) (Info, error) {
	r, err := openReplay(path)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	s := r.state()
	s.wrap = false
	info := Info{
		Meta:       s.hdr.meta,
		Version:    int(s.hdr.version),
		Compressed: s.hdr.flags&FlagGzip != 0,
		EndNs:      -1,
	}
	// Empty ops are unrepresentable, so an empty fetch means the end of
	// the stream (or a latched error) stopped the scan; marks trailing the
	// final op were consumed on the way there.
	if pv, ok := r.(trace.PackedViewSource); ok {
		for view := pv.NextPackedView(4096); len(view) > 0; view = pv.NextPackedView(4096) {
			info.Accesses += int64(len(view))
			for _, v := range view {
				info.Ops += int64(v >> 1 & 1)
			}
		}
	} else {
		var buf []trace.Access
		for buf = r.NextOp(buf[:0]); len(buf) > 0; buf = r.NextOp(buf[:0]) {
			info.Ops++
			info.Accesses += int64(len(buf))
		}
	}
	info.Shifts, info.ShiftNs = s.shifts, s.shiftAt
	if s.sawTime {
		info.EndNs = s.lastTime
	}
	info.Clean = s.done && s.err == nil
	return info, s.err
}

// TraceWriter is the write surface both containers share.
type TraceWriter interface {
	WriteOp(accs []trace.Access) error
	MarkTime(now int64) error
	MarkShift(now int64) error
	Close() error
	Abort() error
}

// CreateVersion starts a trace of format version (Version or Version2) at
// path: Create for v1, where a ".gz" suffix selects gzip framing, and
// CreateV2 for v2, which rejects it.
func CreateVersion(path string, meta Meta, version int) (TraceWriter, error) {
	switch version {
	case Version:
		return Create(path, meta)
	case Version2:
		return CreateV2(path, meta)
	}
	return nil, fmt.Errorf("tracefile: unknown target version %d (know %d and %d)", version, Version, Version2)
}

// writerBase is the scaffolding both writers share: the buffered sink over
// the caller's writer (and the file Create opened), the op checks, the
// latched first error, and the flush-and-close tail.
type writerBase struct {
	bw      *bufio.Writer
	body    io.Writer // where records go: bw, or a gzip stream over it
	file    *os.File  // non-nil when Create or CreateV2 opened the file
	scratch []byte
	closed  bool
	err     error
}

// start validates meta against version's limits and buffers the header
// onto dst, returning the header's length.
func (w *writerBase) start(dst io.Writer, version, flags byte, meta Meta) (int, error) {
	if len(meta.Name) > maxNameLen {
		return 0, fmt.Errorf("tracefile: workload name longer than %d bytes", maxNameLen)
	}
	if _, maxPages, _ := versionLimits(version); meta.NumPages <= 0 || uint64(meta.NumPages) > maxPages {
		return 0, fmt.Errorf("tracefile: NumPages %d outside the version %d range [1,%d]",
			meta.NumPages, version, maxPages)
	}
	w.bw = bufio.NewWriterSize(dst, 1<<16)
	w.body = w.bw
	hdr := appendHeader(nil, version, flags, meta)
	if _, err := w.bw.Write(hdr); err != nil {
		return 0, fmt.Errorf("tracefile: writing header: %w", err)
	}
	return len(hdr), nil
}

// setErr latches the first error and returns it.
func (w *writerBase) setErr(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// writable returns the latched error, latching one for a write after Close.
func (w *writerBase) writable() error {
	if w.err == nil && w.closed {
		w.err = errors.New("tracefile: write after Close")
	}
	return w.err
}

// checkOp returns why accs cannot be written, if anything. Empty ops are
// unrepresentable in both versions: v1 reserves the zero tag for control
// records, and v2 delimits an op by the end-of-op bit on its last access.
func (w *writerBase) checkOp(accs []trace.Access) error {
	if err := w.writable(); err != nil {
		return err
	}
	if len(accs) == 0 {
		return w.setErr(errors.New("tracefile: empty ops are not representable"))
	}
	if len(accs) > maxOpAccesses {
		return w.setErr(fmt.Errorf("tracefile: op with %d accesses exceeds the %d limit",
			len(accs), maxOpAccesses))
	}
	return nil
}

// write appends b to the body, latching a failure as what.
func (w *writerBase) write(b []byte, what string) error {
	if _, err := w.body.Write(b); err != nil {
		return w.setErr(fmt.Errorf("tracefile: writing %s: %w", what, err))
	}
	return nil
}

// closeOut marks the writer closed, flushes it, and closes the file Create
// opened, returning the first error the writer hit.
func (w *writerBase) closeOut() error {
	w.closed = true
	if err := w.bw.Flush(); err != nil {
		w.setErr(fmt.Errorf("tracefile: flushing: %w", err))
	}
	if w.file != nil {
		if err := w.file.Close(); err != nil {
			w.setErr(fmt.Errorf("tracefile: closing file: %w", err))
		}
	}
	return w.err
}
