package tracefile

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// randomOps synthesizes a stream with the shapes real generators produce:
// multi-access ops, forward and backward page jumps, and a write mix.
func randomOps(seed uint64, numOps, numPages int) [][]trace.Access {
	rng := xrand.New(seed)
	ops := make([][]trace.Access, numOps)
	for i := range ops {
		k := 1 + rng.Intn(5)
		op := make([]trace.Access, k)
		for j := range op {
			op[j] = trace.Access{
				Page:  mem.PageID(rng.Intn(numPages)),
				Write: rng.Float64() < 0.3,
			}
		}
		ops[i] = op
	}
	return ops
}

// container is one writable trace encoding.
type container struct {
	name     string
	file     string // a ".gz" suffix selects v1 gzip framing
	version  int
	blockOps int // v2 block flush threshold; 0 keeps the default
}

// containers covers both versions, v1 in both framings and v2 with the
// default blocks and with blocks small enough that small tests cross
// block boundaries.
var containers = []container{
	{"v1", "t.htrc", Version, 0},
	{"v1-gzip", "t.htrc.gz", Version, 0},
	{"v2", "t.htrc", Version2, 0},
	{"v2-blocks-3", "t.htrc", Version2, 3},
	{"v2-blocks-1", "t.htrc", Version2, 1},
}

// create starts a trace in c's encoding at a fresh path.
func (c container) create(t testing.TB, meta Meta) (TraceWriter, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), c.file)
	w, err := CreateVersion(path, meta, c.version)
	if err != nil {
		t.Fatalf("%s: create: %v", c.name, err)
	}
	if w2, ok := w.(*WriterV2); ok && c.blockOps > 0 {
		w2.blockOps = c.blockOps
	}
	return w, path
}

// write writes ops in c's encoding with a time mark after every tenth op,
// returning the path.
func (c container) write(t testing.TB, meta Meta, ops [][]trace.Access) string {
	t.Helper()
	w, path := c.create(t, meta)
	for i, op := range ops {
		if err := w.WriteOp(op); err != nil {
			t.Fatalf("%s: WriteOp(%d): %v", c.name, i, err)
		}
		if i%10 == 9 {
			if err := w.MarkTime(int64(i+1) * 1000); err != nil {
				t.Fatalf("%s: MarkTime: %v", c.name, err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("%s: Close: %v", c.name, err)
	}
	return path
}

// writeTrace writes ops as a v1 trace named name.
func writeTrace(t *testing.T, name string, meta Meta, ops [][]trace.Access) string {
	t.Helper()
	return container{name: "v1", file: name, version: Version}.write(t, meta, ops)
}

// readOps replays numOps ops from path.
func readOps(t *testing.T, path string, numOps int) ([][]trace.Access, Replay) {
	t.Helper()
	r := mustOpen(t, path)
	out := make([][]trace.Access, 0, numOps)
	for i := 0; i < numOps; i++ {
		out = append(out, r.NextOp(nil))
	}
	return out, r
}

// TestRoundTrip is the property-style writer→reader equality check: over
// several seeds and every container, the replayed stream must equal the
// written one access for access, and Stat must count it cleanly.
func TestRoundTrip(t *testing.T) {
	for _, c := range containers {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				ops := randomOps(seed, 500, 1<<14)
				meta := Meta{Name: "rt", NumPages: 1 << 14, Seed: seed}
				path := c.write(t, meta, ops)
				got, r := readOps(t, path, len(ops))
				if err := r.Err(); err != nil {
					t.Fatalf("seed %d: reader error: %v", seed, err)
				}
				if !reflect.DeepEqual(got, ops) {
					t.Fatalf("seed %d: replayed stream differs", seed)
				}
				if h := r.Header(); h != meta {
					t.Fatalf("seed %d: header %+v, want %+v", seed, h, meta)
				}
				if _, v2 := r.(*ReaderV2); v2 != (c.version == Version2) {
					t.Fatalf("seed %d: Open returned %T for a version %d file", seed, r, c.version)
				}
				info, err := Stat(path)
				if err != nil || !info.Clean || info.Version != c.version || info.Ops != int64(len(ops)) ||
					info.Compressed != strings.HasSuffix(c.file, ".gz") || info.EndNs != int64(len(ops))*1000 {
					t.Fatalf("seed %d: Stat = %+v, %v", seed, info, err)
				}
			}
		})
	}
}

// containersOf returns the containers written in the given version.
func containersOf(version int) []container {
	var out []container
	for _, c := range containers {
		if c.version == version {
			out = append(out, c)
		}
	}
	return out
}

// TestWrapAround: the Source contract says workloads are infinite, so a
// reader driven past the recorded stream restarts from the first op.
func TestWrapAround(t *testing.T) { testWrapAround(t, containersOf(Version)) }

// TestV2WrapAround: the same contract over v2, including a stream that
// spans several blocks.
func TestV2WrapAround(t *testing.T) { testWrapAround(t, containersOf(Version2)) }

func testWrapAround(t *testing.T, cs []container) {
	ops := randomOps(3, 10, 1024)
	for _, c := range cs {
		path := c.write(t, Meta{Name: "w", NumPages: 1024}, ops)
		got, r := readOps(t, path, 25)
		if err := r.Err(); err != nil {
			t.Fatalf("%s: reader error: %v", c.name, err)
		}
		if r.Loops() != 2 {
			t.Fatalf("%s: Loops() = %d, want 2", c.name, r.Loops())
		}
		for i, op := range got {
			if want := ops[i%10]; !reflect.DeepEqual(op, want) {
				t.Fatalf("%s: op %d: got %v, want %v", c.name, i, op, want)
			}
		}
	}
}

// TestTruncated: a body that ends without the end record must latch
// ErrTruncated instead of wrapping around or fabricating ops.
func TestTruncated(t *testing.T) {
	ops := randomOps(4, 100, 1024)
	path := writeTrace(t, "trunc.htrc", Meta{Name: "t", NumPages: 1024}, ops)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, r := readOps(t, path, len(ops)+1)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err() = %v, want ErrTruncated", r.Err())
	}
	if last := got[len(got)-1]; len(last) != 0 {
		t.Fatalf("op after truncation = %v, want empty", last)
	}
	if info, err := Stat(path); err == nil || info.Clean {
		t.Fatalf("Stat on truncated file: info %+v, err %v; want unclean + error", info, err)
	}
}

// TestTruncatedGzip: chopping a gzip-framed body must also surface an
// error rather than a silent short stream.
func TestTruncatedGzip(t *testing.T) {
	ops := randomOps(5, 200, 1024)
	path := writeTrace(t, "trunc.htrc.gz", Meta{Name: "t", NumPages: 1024}, ops)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	_, r := readOps(t, path, len(ops)+1)
	if r.Err() == nil {
		t.Fatal("reader accepted a truncated gzip body")
	}
}

func TestCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string][]byte{
		"empty":    {},
		"magic":    []byte("NOPE\x01\x00\x00"),
		"version":  []byte("HTRC\x63\x00\x00"),
		"flags":    []byte("HTRC\x01\x04\x00"), // reserved bit 2 set
		"name-len": append([]byte("HTRC\x01\x00"), 0xff, 0xff, 0xff, 0x7f),
		"short":    []byte("HTRC\x01\x00\x05ab"),
		"v2-gzip":  []byte("HTRC\x02\x01\x01x\x40\x00"), // v2 bodies are never gzip-framed
		"v2-pages": append([]byte("HTRC\x02\x00\x01x"), 0x80, 0x80, 0x80, 0x80, 0x08, 0x00),
	}
	for name, b := range cases {
		// The header is checked before any body or footer, so no case may
		// pass for a merely truncated file.
		if _, err := Open(write(name, b)); err == nil || errors.Is(err, ErrTruncated) {
			t.Errorf("%s: Open = %v, want a header error", name, err)
		}
	}
}

// TestUnknownControl: within version 1 an unrecognized control subtype is
// corruption, not something to skip silently.
func TestUnknownControl(t *testing.T) {
	b := []byte("HTRC\x01\x00")
	b = append(b, 1, 'x')           // name "x"
	b = binary.AppendUvarint(b, 64) // numPages
	b = binary.AppendUvarint(b, 0)  // seed
	b = append(b, 0, 0x7f)          // control record, reserved subtype
	p := filepath.Join(t.TempDir(), "ctl.htrc")
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, r := readOps(t, p, 1)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Err() = %v, want ErrCorrupt", r.Err())
	}
}

// TestPageOutOfRange: decoded pages must stay inside the header's page
// space; external producers that get deltas wrong are caught here.
func TestPageOutOfRange(t *testing.T) {
	b := []byte("HTRC\x01\x00")
	b = append(b, 1, 'x')
	b = binary.AppendUvarint(b, 16) // numPages
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, 1)             // op, 1 access
	b = binary.AppendUvarint(b, zigzag(99)<<1) // page 99 > 15
	p := filepath.Join(t.TempDir(), "range.htrc")
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, r := readOps(t, p, 1)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Err() = %v, want ErrCorrupt", r.Err())
	}
}

// TestEmptyOpRejected: empty ops are unrepresentable in both versions, and
// a closed writer refuses every write.
func TestEmptyOpRejected(t *testing.T) {
	for _, c := range containers {
		w, _ := c.create(t, Meta{Name: "e", NumPages: 4})
		if err := w.WriteOp(nil); err == nil {
			t.Errorf("%s: WriteOp(nil) succeeded; empty ops are unrepresentable", c.name)
		}
		w.Close()
		w, _ = c.create(t, Meta{Name: "e", NumPages: 4})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.WriteOp([]trace.Access{{Page: 1}}) == nil || w.MarkTime(1) == nil {
			t.Errorf("%s: a closed writer accepted a write", c.name)
		}
	}
}

// TestPageSpaceLimits: v2's packed word holds a 30-bit page id, so a page
// space past 2^30 pages only fits v1 — the reason v1 stays writable
// (docs/TRACE_FORMAT.md §"Why v1 stays writable"). Writers refuse a header
// their readers would reject.
func TestPageSpaceLimits(t *testing.T) {
	big := Meta{Name: "big", NumPages: v2PageLimit + 1}
	op := []trace.Access{{Page: v2PageLimit}, {Page: 3, Write: true}}
	path := containers[0].write(t, big, [][]trace.Access{op})
	got, r := readOps(t, path, 1)
	if r.Err() != nil || !reflect.DeepEqual(got[0], op) {
		t.Fatalf("v1 replay of a page past 2^30: %v, %v", got[0], r.Err())
	}
	if err := Convert(path, filepath.Join(t.TempDir(), "big.v2.htrc"), Version2); err == nil {
		t.Error("converted a page space past 2^30 to v2")
	}
	for _, m := range []Meta{big, {Name: "huge", NumPages: 1<<40 + 1}, {Name: "none"}} {
		version := Version2
		if m.NumPages > big.NumPages || m.NumPages == 0 {
			version = Version
		}
		if _, err := CreateVersion(filepath.Join(t.TempDir(), "x.htrc"), m, version); err == nil {
			t.Errorf("v%d writer accepted %d pages", version, m.NumPages)
		}
	}
}

// TestStat checks the inspection path: counts, marks, framing, and the
// clean-end bit.
func TestStat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.htrc.gz")
	w, err := Create(path, Meta{Name: "stat", NumPages: 256, Seed: 9, Shift: true})
	if err != nil {
		t.Fatal(err)
	}
	ops := randomOps(7, 40, 256)
	for _, op := range ops {
		if err := w.WriteOp(op); err != nil {
			t.Fatal(err)
		}
	}
	w.MarkTime(5_000)
	w.MarkShift(4_200)
	w.MarkTime(9_000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	var accesses int64
	for _, op := range ops {
		accesses += int64(len(op))
	}
	want := Info{
		Meta:       Meta{Name: "stat", NumPages: 256, Seed: 9, Shift: true},
		Version:    Version,
		Compressed: true,
		Ops:        40,
		Accesses:   accesses,
		Shifts:     1,
		ShiftNs:    4_200,
		EndNs:      9_000,
		Clean:      true,
	}
	if info != want {
		t.Fatalf("Stat = %+v, want %+v", info, want)
	}
}

// TestRecorderTee: recording must not perturb the stream it observes, and
// the capture must replay identically — including the shift mark.
func TestRecorderTee(t *testing.T) {
	const n, opCount = 1 << 12, 2000
	mk := func() trace.ShiftSource {
		return trace.NewShiftingZipfSource("tee", n, 1.0, 11, 600, 0.5)
	}
	live, recorded := mk(), mk()
	path := filepath.Join(t.TempDir(), "tee.htrc")
	w, err := Create(path, MetaOf(recorded, 11))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(recorded, w)
	if rec.ShiftTime() != -1 {
		t.Fatalf("ShiftTime before shift = %d, want -1", rec.ShiftTime())
	}
	now := int64(0)
	for i := 0; i < opCount; i++ {
		a := live.NextOp(nil)
		b := rec.NextOp(nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("op %d: recorder perturbed the stream: %v vs %v", i, a, b)
		}
		now += 1000
		if i%50 == 49 {
			live.AdvanceTime(now)
			rec.AdvanceTime(now)
		}
	}
	if rec.Err() != nil {
		t.Fatalf("recorder error: %v", rec.Err())
	}
	if rec.ShiftTime() != live.ShiftTime() {
		t.Fatalf("recorder ShiftTime %d, live %d", rec.ShiftTime(), live.ShiftTime())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	replaySrc, fresh := mustOpen(t, path), mk()
	for i := 0; i < opCount; i++ {
		a := fresh.NextOp(nil)
		b := replaySrc.NextOp(nil)
		if i%50 == 49 {
			fresh.AdvanceTime(int64(i+1) * 1000)
			replaySrc.AdvanceTime(int64(i+1) * 1000)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("replay op %d differs: %v vs %v", i, a, b)
		}
	}
	replaySrc.AdvanceTime(opCount * 1000) // the simulator's end-of-run advance
	if replaySrc.ShiftTime() != live.ShiftTime() {
		t.Fatalf("replay ShiftTime %d, live %d", replaySrc.ShiftTime(), live.ShiftTime())
	}
	if replaySrc.Name() != "tee" || replaySrc.NumPages() != n {
		t.Fatalf("replay identity %q/%d, want tee/%d", replaySrc.Name(), replaySrc.NumPages(), n)
	}
}

// TestZeroOpTraceErrors: a structurally valid trace with no op records is
// inspectable but cannot serve as a workload — NextOp must latch an error
// instead of wrapping into the end of the stream forever.
func TestZeroOpTraceErrors(t *testing.T) { testZeroOpTrace(t, containersOf(Version)) }

// TestV2ZeroOpTrace: the same zero-op contract over v2.
func TestV2ZeroOpTrace(t *testing.T) { testZeroOpTrace(t, containersOf(Version2)) }

func testZeroOpTrace(t *testing.T, cs []container) {
	for _, c := range cs {
		w, path := c.create(t, Meta{Name: "z", NumPages: 8})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := Stat(path)
		if err != nil || !info.Clean || info.Ops != 0 {
			t.Fatalf("%s: Stat = %+v, %v; want clean zero-op info", c.name, info, err)
		}
		r := mustOpen(t, path)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if op := r.NextOp(nil); len(op) != 0 {
				t.Errorf("%s: NextOp on empty trace returned %v", c.name, op)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: NextOp on a zero-op trace never returned", c.name)
		}
		if r.Err() == nil {
			t.Fatalf("%s: NextOp on a zero-op trace left Err nil", c.name)
		}
	}
}

// TestShiftOnFinalOp: a shift firing inside the run's last op must still
// reach the replay — the mark is written before the op record, so an
// exact-length replay consumes it (the byte-identical contract covers
// ShiftNs).
func TestShiftOnFinalOp(t *testing.T) {
	const n, opCount = 1 << 10, 100
	src := trace.NewShiftingZipfSource("edge", n, 1.0, 21, opCount, 0.5)
	path := filepath.Join(t.TempDir(), "edge.htrc")
	w, err := Create(path, MetaOf(src, 21))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(src, w)
	for i := 0; i < opCount; i++ {
		rec.AdvanceTime(int64(i+1) * 1000)
		rec.NextOp(nil)
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if src.ShiftTime() < 0 {
		t.Fatalf("shift never fired; ShiftTime = %d", src.ShiftTime())
	}
	r := mustOpen(t, path)
	for i := 0; i < opCount; i++ {
		r.NextOp(nil)
	}
	r.AdvanceTime(opCount * 1000) // the simulator's end-of-run advance
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Loops() != 0 {
		t.Fatalf("exact-length replay wrapped %d times", r.Loops())
	}
	if r.ShiftTime() != src.ShiftTime() {
		t.Fatalf("replay ShiftTime %d, live %d", r.ShiftTime(), src.ShiftTime())
	}

	// A replay shortened to end before the shift's op must not see the
	// shift: its mark sits behind that op's record, out of drain reach.
	short := mustOpen(t, path)
	for i := 0; i < opCount-1; i++ {
		short.NextOp(nil)
	}
	short.AdvanceTime((opCount - 1) * 1000)
	if short.Err() != nil {
		t.Fatal(short.Err())
	}
	if short.ShiftTime() != -1 {
		t.Fatalf("shortened replay reports phantom shift at %d", short.ShiftTime())
	}
}

// TestRerecordPreservesHeader: re-recording a replay must copy the
// original capture's header — seed and shift-capability are provenance of
// the original instance, not of the replaying Reader (which implements
// ShiftSource for every trace).
func TestRerecordPreservesHeader(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.htrc")
	ops := randomOps(8, 30, 512)
	origMeta := Meta{Name: "prov", NumPages: 512, Seed: 77, Shift: false}
	w, err := Create(orig, origMeta)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.WriteOp(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, orig)
	copyPath := filepath.Join(dir, "copy.htrc")
	cw, err := Create(copyPath, MetaOf(r, 1)) // seed 1 = some later run's seed
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(r, cw)
	for range ops {
		rec.NextOp(nil)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Stat(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Meta != origMeta {
		t.Fatalf("re-recorded header %+v, want the original %+v", info.Meta, origMeta)
	}
}

// TestRecorderSurfacesSourceError: a Recorder wrapped around a failing
// source (e.g. a truncated replay) must report the source's error, not
// the knock-on empty-op write failure it causes.
func TestRecorderSurfacesSourceError(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.htrc")
	path := writeTrace(t, "ok.htrc", Meta{Name: "s", NumPages: 512}, randomOps(9, 50, 512))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, b[:len(b)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, bad)
	cw, err := Create(filepath.Join(dir, "copy.htrc"), MetaOf(r, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	rec := NewRecorder(r, cw)
	for i := 0; i < 60; i++ {
		rec.NextOp(nil)
	}
	if !errors.Is(rec.Err(), ErrTruncated) {
		t.Fatalf("Recorder.Err() = %v, want the source's ErrTruncated", rec.Err())
	}
}

// tickShiftSource shifts via AdvanceTime rather than NextOp — the other
// trigger the Source contract allows — with the shift firing on the last
// clock advance of the run.
type tickShiftSource struct {
	*trace.ZipfSource
	shiftAtNs int64
	shiftedAt int64
}

func (s *tickShiftSource) AdvanceTime(now int64) {
	if s.shiftedAt < 0 && now >= s.shiftAtNs {
		s.shiftedAt = now
	}
	s.ZipfSource.AdvanceTime(now)
}

func (s *tickShiftSource) ShiftTime() int64 { return s.shiftedAt }

// TestShiftOnFinalTick: a shift fired by the run's last AdvanceTime — after
// the final op — must still reach an exact-length replay. The recorder
// emits the mark on the tick, and the reader consumes trailing marks when
// its own clock advances (the simulator advances it once after the loop).
func TestShiftOnFinalTick(t *testing.T) {
	const n, opCount = 1 << 10, 50
	src := &tickShiftSource{
		ZipfSource: trace.NewZipfSource("tick", n, 1.0, 0, 31),
		shiftAtNs:  opCount * 1000,
		shiftedAt:  -1,
	}
	path := filepath.Join(t.TempDir(), "tick.htrc")
	w, err := Create(path, MetaOf(src, 31))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(src, w)
	for i := 0; i < opCount; i++ {
		rec.NextOp(nil)
	}
	rec.AdvanceTime(opCount * 1000) // the simulator's end-of-run advance
	if rec.ShiftTime() != src.shiftedAt || src.shiftedAt < 0 {
		t.Fatalf("recorder ShiftTime %d, source %d", rec.ShiftTime(), src.shiftedAt)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, path)
	for i := 0; i < opCount; i++ {
		r.NextOp(nil)
	}
	if r.ShiftTime() != -1 {
		t.Fatalf("trailing shift mark consumed before the clock advanced: %d", r.ShiftTime())
	}
	r.AdvanceTime(opCount * 1000)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.ShiftTime() != src.shiftedAt {
		t.Fatalf("replay ShiftTime %d, live %d", r.ShiftTime(), src.shiftedAt)
	}
	if r.Loops() != 0 {
		t.Fatalf("drain crossed the end record: wrapped %d times", r.Loops())
	}
}

func mustOpen(t *testing.T, path string) Replay {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestZigzag pins the varint delta mapping the format doc specifies.
func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, -1, 1, -2, 2, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
	// The doc's worked example: delta −3, read access → varint value 0x0A.
	if got := zigzag(-3) << 1; got != 0x0A {
		t.Fatalf("zigzag(-3)<<1 = %#x, want 0x0A", got)
	}
}
