package trace

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mem"
)

// hidden hides every capability but the bare Source interface, forcing
// AsBatchSource onto its generic adapter — the single-op reference path.
type hidden struct{ src Source }

func (h *hidden) Name() string                 { return h.src.Name() }
func (h *hidden) NumPages() int                { return h.src.NumPages() }
func (h *hidden) NextOp(dst []Access) []Access { return h.src.NextOp(dst) }
func (h *hidden) AdvanceTime(now int64)        { h.src.AdvanceTime(now) }

// hiddenShift additionally keeps the ShiftSource interface visible, like
// the simulator's view of a shift-capable workload.
type hiddenShift struct{ hidden }

func (h *hiddenShift) ShiftTime() int64 { return h.src.(ShiftSource).ShiftTime() }

func hide(src Source) Source {
	if _, ok := src.(ShiftSource); ok {
		return &hiddenShift{hidden{src}}
	}
	return &hidden{src}
}

// drive consumes ops operations from src the way the simulator does:
// batches of up to batch ops, a fixed virtual latency per access, and
// AdvanceTime delivered at tick boundaries while consuming. It returns
// the flat access stream (EndOp set on every op's final access) and the
// final ShiftTime (-1 for shift-less sources).
func drive(t *testing.T, src Source, ops int64, batch int) ([]Access, int64) {
	t.Helper()
	bs := AsBatchSource(src)
	const accessNs = 50
	const tickNs = 1_000
	var (
		stream   []Access
		buf      []Access
		now      int64
		nextTick int64 = tickNs
		done     int64
	)
	for done < ops {
		want := batch
		if rem := ops - done; rem < int64(want) {
			want = int(rem)
		}
		buf = bs.NextBatch(buf[:0], want)
		if len(buf) == 0 {
			t.Fatalf("%s: source produced no ops after %d", src.Name(), done)
		}
		for _, a := range buf {
			stream = append(stream, a)
			now += accessNs
			if a.EndOp {
				done++
				for now >= nextTick {
					src.AdvanceTime(now)
					nextTick += tickNs
				}
			}
		}
	}
	shift := int64(-1)
	if ss, ok := src.(ShiftSource); ok {
		shift = ss.ShiftTime()
	}
	return stream, shift
}

func streamsEqual(a, b []Access) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mustMix builds a mix or fails the test.
func mustMix(t *testing.T, parts ...Weighted) Source {
	t.Helper()
	m, err := NewMix(parts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMixScheduleIsDeterministicWRR(t *testing.T) {
	// Weights 3:1 over two scans yields the smooth-WRR cycle A A B A.
	a := NewScanSource("a", 4)
	b := NewScanSource("b", 8)
	m := mustMix(t, Weighted{a, 3}, Weighted{b, 1})
	if m.NumPages() != 12 {
		t.Fatalf("NumPages = %d, want 12 (4+8)", m.NumPages())
	}
	wantPages := []mem.PageID{
		0, 1, 4 + 0, 2, // A A B A  (B remapped up by A's 4 pages)
		3, 0, 4 + 1, 1, // cycle repeats; scans wrap their own spaces
	}
	var buf []Access
	for i, want := range wantPages {
		buf = m.NextOp(buf[:0])
		if len(buf) != 1 || buf[0].Page != want {
			t.Fatalf("op %d: got %+v, want page %d", i, buf, want)
		}
		if buf[0].EndOp {
			t.Fatalf("op %d: NextOp must leave EndOp false", i)
		}
	}
}

func TestMixRemapsTenantsDisjointly(t *testing.T) {
	a := NewZipfSource("a", 100, 1.0, 0, 1)
	b := NewZipfSource("b", 200, 1.0, 0, 2)
	c := NewZipfSource("c", 50, 1.0, 0, 3)
	m := mustMix(t, Weighted{a, 1}, Weighted{b, 1}, Weighted{c, 1})
	if m.NumPages() != 350 {
		t.Fatalf("NumPages = %d, want 350", m.NumPages())
	}
	// Tenants occupy [0,100), [100,300), [300,350): with a 1:1:1 schedule
	// every third op belongs to one tenant's range.
	ranges := [][2]mem.PageID{{0, 100}, {100, 300}, {300, 350}}
	var buf []Access
	for i := 0; i < 300; i++ {
		buf = m.NextOp(buf[:0])
		r := ranges[i%3]
		if p := buf[0].Page; p < r[0] || p >= r[1] {
			t.Fatalf("op %d: page %d outside tenant range [%d,%d)", i, p, r[0], r[1])
		}
	}
}

func TestPhasesSwitchAtExactOpCounts(t *testing.T) {
	a := NewScanSource("a", 4)
	b := NewScanSource("b", 16)
	p, err := NewPhases(Stage{a, 5}, Stage{b, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPages() != 16 {
		t.Fatalf("NumPages = %d, want max(4,16)", p.NumPages())
	}
	var buf []Access
	for i := 0; i < 20; i++ {
		buf = p.NextOp(buf[:0])
		fromA := buf[0].Page < 4 && i < 5
		fromB := i >= 5
		if !fromA && !fromB {
			t.Fatalf("op %d: page %d came from the wrong stage", i, buf[0].Page)
		}
	}
}

func TestConcatIsTwoStagePhases(t *testing.T) {
	a := NewScanSource("a", 4)
	b := NewScanSource("b", 4)
	c, err := NewPhases(Stage{a, 3}, Stage{Source: b})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Name(); got != "phases(a@3,b)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestRepeatLoopsCapturedPrefix(t *testing.T) {
	s := NewScanSource("s", 10)
	r, err := NewRepeat(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf []Access
	for i := 0; i < 12; i++ {
		buf = r.NextOp(buf[:0])
		if want := mem.PageID(i % 3); buf[0].Page != want {
			t.Fatalf("op %d: page %d, want %d (looping first 3 scan ops)", i, buf[0].Page, want)
		}
		if buf[0].EndOp {
			t.Fatalf("op %d: NextOp must leave EndOp false", i)
		}
	}
}

func TestOffsetAndScaleTransformPages(t *testing.T) {
	o, err := NewOffset(NewScanSource("s", 4), 100)
	if err != nil {
		t.Fatal(err)
	}
	if o.NumPages() != 104 {
		t.Fatalf("offset NumPages = %d, want 104", o.NumPages())
	}
	buf := o.NextOp(nil)
	if buf[0].Page != 100 {
		t.Fatalf("offset first page = %d, want 100", buf[0].Page)
	}

	sc, err := NewScale(NewScanSource("s", 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumPages() != 32 {
		t.Fatalf("scale NumPages = %d, want 32", sc.NumPages())
	}
	var pages []mem.PageID
	for i := 0; i < 4; i++ {
		buf = sc.NextOp(buf[:0])
		pages = append(pages, buf[0].Page)
	}
	for i, p := range pages {
		if want := mem.PageID(i * 8); p != want {
			t.Fatalf("scale op %d: page %d, want %d", i, p, want)
		}
	}
}

func TestCombinatorConstructorErrors(t *testing.T) {
	z := NewZipfSource("z", 64, 1.0, 0, 1)
	cases := []struct {
		name string
		err  error
	}{
		{"one-tenant mix", func() error { _, err := NewMix(Weighted{z, 1}); return err }()},
		{"zero weight", func() error { _, err := NewMix(Weighted{z, 0}, Weighted{z, 1}); return err }()},
		{"one-stage phases", func() error { _, err := NewPhases(Stage{z, 0}); return err }()},
		{"zero mid quota", func() error { _, err := NewPhases(Stage{z, 0}, Stage{z, 0}); return err }()},
		{"final with quota", func() error { _, err := NewPhases(Stage{z, 5}, Stage{z, 5}); return err }()},
		{"zero repeat", func() error { _, err := NewRepeat(z, 0); return err }()},
		{"negative offset", func() error { _, err := NewOffset(z, -1); return err }()},
		{"zero scale", func() error { _, err := NewScale(z, 0); return err }()},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

// TestClockFreePropagation: a composite is clock-free when every child is
// — shifting children included, their content being op-count-driven — and
// one child without the marker (what a trace: leaf is) takes it away.
func TestClockFreePropagation(t *testing.T) {
	cf := func(s Source) bool {
		c, ok := s.(ClockFree)
		return ok && c.ClockFree()
	}
	z1 := NewZipfSource("z1", 64, 1.0, 0, 1)
	z2 := NewZipfSource("z2", 64, 1.0, 0, 2)
	shift := NewShiftingZipfSource("sh", 64, 1.0, 3, 100, 0.5)
	unmarked := struct{ Source }{NewZipfSource("tr", 64, 1.0, 0, 4)}

	if m := mustMix(t, Weighted{z1, 1}, Weighted{z2, 1}); !cf(m) {
		t.Error("mix of clock-free tenants must be clock-free")
	}
	if m := mustMix(t, Weighted{z1, 1}, Weighted{shift, 1}); !cf(m) {
		t.Error("mix with a shifting tenant must be clock-free")
	}
	if m := mustMix(t, Weighted{shift, 1}, Weighted{unmarked, 1}); cf(m) {
		t.Error("mix with an unmarked tenant must not be clock-free")
	}
	p, _ := NewPhases(Stage{z1, 10}, Stage{z2, 0})
	if !cf(p) {
		t.Error("phases over clock-free stages must be clock-free")
	}
	if p, _ := NewPhases(Stage{z1, 10}, Stage{unmarked, 0}); cf(p) {
		t.Error("phases with an unmarked stage must not be clock-free")
	}
	o, _ := NewOffset(shift, 10)
	if !cf(o) {
		t.Error("offset of a shifting source must be clock-free")
	}
	if o, _ := NewOffset(unmarked, 10); cf(o) {
		t.Error("offset of an unmarked source must not be clock-free")
	}
	r, _ := NewRepeat(z1, 10)
	if !cf(r) {
		t.Error("repeat of a clock-free source must be clock-free")
	}
}

func TestShiftSourcePromotion(t *testing.T) {
	z := NewZipfSource("z", 64, 1.0, 0, 1)
	shift := NewShiftingZipfSource("sh", 64, 1.0, 3, 10, 0.5)

	plain := mustMix(t, Weighted{z, 1}, Weighted{NewZipfSource("y", 64, 1.0, 0, 2), 1})
	if _, ok := plain.(ShiftSource); ok {
		t.Error("mix without shifting tenants must not implement ShiftSource")
	}
	m := mustMix(t, Weighted{z, 1}, Weighted{shift, 1})
	ss, ok := m.(ShiftSource)
	if !ok {
		t.Fatal("mix with a shifting tenant must implement ShiftSource")
	}
	if got := ss.ShiftTime(); got != -1 {
		t.Fatalf("ShiftTime before any shift = %d, want -1", got)
	}
	// Deep nesting keeps the interface: offset(phases(mix(shift,...),...)).
	inner := mustMix(t, Weighted{shift, 1}, Weighted{z, 1})
	ph, err := NewPhases(Stage{inner, 100}, Stage{NewZipfSource("t", 64, 1.0, 0, 9), 0})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewOffset(ph, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := off.(ShiftSource); !ok {
		t.Error("shift capability must survive arbitrary nesting")
	}
}

// erringSource is a stub child with a latched stream error and a Close.
type erringSource struct {
	err    error
	closed bool
}

func (e *erringSource) Name() string                 { return "stub" }
func (e *erringSource) NumPages() int                { return 8 }
func (e *erringSource) AdvanceTime(int64)            {}
func (e *erringSource) Err() error                   { return e.err }
func (e *erringSource) Close() error                 { e.closed = true; return nil }
func (e *erringSource) NextOp(dst []Access) []Access { return dst } // dead stream

func TestErrAndClosePropagate(t *testing.T) {
	stubErr := errors.New("stream broke")
	stub := &erringSource{err: stubErr}
	z := NewZipfSource("z", 64, 1.0, 0, 1)
	m := mustMix(t, Weighted{z, 1}, Weighted{stub, 1})
	es, ok := m.(interface{ Err() error })
	if !ok {
		t.Fatal("combinators must expose Err()")
	}
	if !errors.Is(es.Err(), stubErr) {
		t.Fatalf("Err() = %v, want the child's %v", es.Err(), stubErr)
	}
	cl, ok := m.(interface{ Close() error })
	if !ok {
		t.Fatal("combinators must expose Close()")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if !stub.closed {
		t.Error("Close() must reach every child")
	}
}

// TestAsBatchSourceDegradesUnknownShiftCombinators is the regression test
// for the adapter contract: a shift-capable source with no native
// NextBatch — here a combinator whose batching capability is hidden —
// must be fetched one op per call, so its op-count-triggered shift
// observes the virtual clock on exactly the single-op schedule.
func TestAsBatchSourceDegradesUnknownShiftCombinators(t *testing.T) {
	shift := NewShiftingZipfSource("sh", 256, 1.0, 5, 500, 0.5)
	m := mustMix(t, Weighted{shift, 1}, Weighted{NewZipfSource("z", 256, 1.0, 0, 6), 1})
	bs := AsBatchSource(hide(m))
	for call := 0; call < 10; call++ {
		got := bs.NextBatch(nil, 50)
		if n := countOps(got); n != 1 {
			t.Fatalf("call %d: adapter produced %d ops per call for an unknown ShiftSource, want 1", call, n)
		}
	}
}

// TestCombinatorBatchingMatchesSingleOp is the core determinism contract:
// for every combinator — including nestings around an op-count-triggered
// distribution shift — the batched fetch path must produce the identical
// access stream and the identical shift timestamp as the single-op
// reference schedule, for any batch size.
func TestCombinatorBatchingMatchesSingleOp(t *testing.T) {
	const ops = 4_000
	newShift := func(seed uint64) Source {
		return NewShiftingZipfSource("sh", 512, 1.0, seed, 1_200, 2.0/3.0)
	}
	newZipf := func(seed uint64) Source {
		return NewZipfSource("z", 512, 0.9, 0, seed)
	}
	builders := []struct {
		name  string
		build func() Source
	}{
		{"mix/clockfree", func() Source {
			return mustMix(t, Weighted{newZipf(1), 0.7}, Weighted{newZipf(2), 0.3})
		}},
		{"mix/shift", func() Source {
			return mustMix(t, Weighted{newShift(3), 0.6}, Weighted{newZipf(4), 0.4})
		}},
		{"phases/shift-then-zipf", func() Source {
			p, err := NewPhases(Stage{newShift(5), 2_500}, Stage{newZipf(6), 0})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"repeat/shift", func() Source {
			r, err := NewRepeat(newShift(7), 2_000)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"offset/shift", func() Source {
			o, err := NewOffset(newShift(8), 333)
			if err != nil {
				t.Fatal(err)
			}
			return o
		}},
		{"scale/shift", func() Source {
			s, err := NewScale(newShift(9), 3)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"deep/mix(offset(phases(shift,zipf)),zipf)", func() Source {
			p, err := NewPhases(Stage{newShift(10), 1_800}, Stage{newZipf(11), 0})
			if err != nil {
				t.Fatal(err)
			}
			o, err := NewOffset(p, 64)
			if err != nil {
				t.Fatal(err)
			}
			return mustMix(t, Weighted{o, 0.5}, Weighted{newZipf(12), 0.5})
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			refStream, refShift := drive(t, hide(b.build()), ops, 1)
			for _, batch := range []int{3, 7, 64, 1024} {
				gotStream, gotShift := drive(t, b.build(), ops, batch)
				if !streamsEqual(refStream, gotStream) {
					t.Fatalf("batch=%d: access stream diverges from single-op schedule", batch)
				}
				if gotShift != refShift {
					t.Fatalf("batch=%d: shift timestamp %d, single-op schedule says %d", batch, gotShift, refShift)
				}
			}
			if refShift == -1 {
				if _, ok := b.build().(ShiftSource); ok {
					t.Fatal("shift never fired: the scenario does not exercise timestamping")
				}
			}
		})
	}
}

func TestCombinatorNamesSynthesize(t *testing.T) {
	z := NewZipfSource("zipf-a", 64, 1.0, 0, 1)
	y := NewZipfSource("zipf-b", 64, 1.0, 0, 2)
	m := mustMix(t, Weighted{z, 0.7}, Weighted{y, 0.3})
	if want := "mix(0.7*zipf-a,0.3*zipf-b)"; m.Name() != want {
		t.Fatalf("mix Name = %q, want %q", m.Name(), want)
	}
	r, _ := NewRepeat(z, 42)
	if want := "repeat(zipf-a@42)"; r.Name() != want {
		t.Fatalf("repeat Name = %q, want %q", r.Name(), want)
	}
	o, _ := NewOffset(z, 9)
	if want := "offset(zipf-a+9)"; o.Name() != want {
		t.Fatalf("offset Name = %q, want %q", o.Name(), want)
	}
	s, _ := NewScale(z, 4)
	if want := "scale(4*zipf-a)"; s.Name() != want {
		t.Fatalf("scale Name = %q, want %q", s.Name(), want)
	}
}

func ExampleNewMix() {
	a := NewZipfSource("tenant-a", 1<<10, 1.0, 0, 1)
	b := NewZipfSource("tenant-b", 1<<10, 0.8, 0, 2)
	m, _ := NewMix(Weighted{Source: a, Weight: 0.7}, Weighted{Source: b, Weight: 0.3})
	fmt.Println(m.Name(), m.NumPages())
	// Output: mix(0.7*tenant-a,0.3*tenant-b) 2048
}
