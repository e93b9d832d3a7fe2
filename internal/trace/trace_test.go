package trace

import (
	"testing"

	"repro/internal/mem"
)

func TestZipfSourceBasics(t *testing.T) {
	src := NewZipfSource("z", 1000, 0.99, 0.25, 1)
	if src.Name() != "z" || src.NumPages() != 1000 {
		t.Fatal("accessors mismatch")
	}
	var buf []Access
	writes := 0
	const ops = 20000
	counts := make(map[mem.PageID]int)
	for i := 0; i < ops; i++ {
		buf = src.NextOp(buf[:0])
		if len(buf) != 1 {
			t.Fatalf("zipf op has %d accesses, want 1", len(buf))
		}
		if int(buf[0].Page) >= 1000 {
			t.Fatalf("page %d out of range", buf[0].Page)
		}
		if buf[0].Write {
			writes++
		}
		counts[buf[0].Page]++
	}
	frac := float64(writes) / ops
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("write fraction = %v, want ≈ 0.25", frac)
	}
	// Skew: hottest page must absorb far more than the uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < ops/200 { // uniform share would be ops/1000
		t.Errorf("hottest page count = %d, expected strong skew", max)
	}
}

func TestZipfSourceDeterminism(t *testing.T) {
	a := NewZipfSource("a", 100, 1.0, 0, 42)
	b := NewZipfSource("b", 100, 1.0, 0, 42)
	for i := 0; i < 1000; i++ {
		pa := a.NextOp(nil)[0].Page
		pb := b.NextOp(nil)[0].Page
		if pa != pb {
			t.Fatal("same seed must reproduce the same stream")
		}
	}
}

func TestReshuffleChangesHotSet(t *testing.T) {
	src := NewZipfSource("z", 10000, 1.2, 0, 7)
	hotBefore := topPages(src, 300000, 100)
	src.Reshuffle(2.0 / 3.0)
	hotAfter := topPages(src, 300000, 100)
	overlap := 0
	for p := range hotAfter {
		if hotBefore[p] {
			overlap++
		}
	}
	// §2.3.2: 2/3 of previously hot data are no longer hot.
	if overlap > 60 {
		t.Errorf("hot-set overlap after 2/3 reshuffle = %d/100, want ≤ 60", overlap)
	}
	if overlap == 0 {
		t.Error("1/3 of the hot set should survive the shift")
	}
}

func topPages(src Source, ops, k int) map[mem.PageID]bool {
	counts := map[mem.PageID]int{}
	var buf []Access
	for i := 0; i < ops; i++ {
		buf = src.NextOp(buf[:0])
		counts[buf[0].Page]++
	}
	type pc struct {
		p mem.PageID
		c int
	}
	all := make([]pc, 0, len(counts))
	for p, c := range counts {
		all = append(all, pc{p, c})
	}
	// partial selection sort for top k
	top := map[mem.PageID]bool{}
	for i := 0; i < k && i < len(all); i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].c > all[best].c {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
		top[all[i].p] = true
	}
	return top
}

func TestShiftingZipfTriggersOnce(t *testing.T) {
	src := NewShiftingZipfSource("s", 1000, 1.0, 3, 100, 0.5)
	if src.ShiftTime() != -1 {
		t.Error("ShiftTime must be -1 before the shift")
	}
	var buf []Access
	src.AdvanceTime(5000)
	for i := 0; i < 99; i++ {
		buf = src.NextOp(buf[:0])
	}
	if src.ShiftTime() != -1 {
		t.Error("shift fired too early")
	}
	buf = src.NextOp(buf[:0]) // 100th op triggers
	if src.ShiftTime() != 5000 {
		t.Errorf("ShiftTime = %d, want 5000 (last AdvanceTime)", src.ShiftTime())
	}
	// Further ops do not re-shift.
	src.AdvanceTime(9000)
	src.NextOp(buf[:0])
	if src.ShiftTime() != 5000 {
		t.Error("shift must fire exactly once")
	}
	var _ ShiftSource = src // interface check
}

func TestScanSourceSequential(t *testing.T) {
	src := NewScanSource("scan", 5)
	var buf []Access
	for want := 0; want < 12; want++ {
		buf = src.NextOp(buf[:0])
		if buf[0].Page != mem.PageID(want%5) {
			t.Fatalf("op %d touched page %d, want %d", want, buf[0].Page, want%5)
		}
	}
	src.AdvanceTime(1) // no-op, must not panic
	if src.Name() != "scan" || src.NumPages() != 5 {
		t.Error("accessors mismatch")
	}
}
