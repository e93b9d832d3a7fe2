package tier

import (
	"errors"
	"testing"

	"repro/internal/mem"
)

func TestNopEnv(t *testing.T) {
	m, err := mem.New(mem.Config{
		NumPages: 16, FastPages: 2,
		PageBytes: mem.RegularPageBytes, Alloc: mem.AllocSlow,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &NopEnv{M: m, Clock: 42, Accesses: map[mem.PageID]int64{3: 7}}

	if e.Mem() != m {
		t.Error("Mem must return the wrapped memory")
	}
	if e.Now() != 42 {
		t.Error("Now must return the clock")
	}
	m.Touch(1)
	if err := e.Promote(1); err != nil {
		t.Fatal(err)
	}
	if m.TierOf(1) != mem.Fast {
		t.Error("Promote must apply")
	}
	if err := e.Demote(1); err != nil {
		t.Fatal(err)
	}
	if m.TierOf(1) != mem.Slow {
		t.Error("Demote must apply")
	}
	// Full tier propagates the error.
	m.Promote(4)
	m.Promote(5)
	if err := e.Promote(6); !errors.Is(err, mem.ErrFastFull) {
		t.Errorf("Promote on full tier: %v", err)
	}
	e.Charge(10)
	e.Charge(5)
	if e.Charged != 15 {
		t.Errorf("Charged = %v, want 15", e.Charged)
	}
	e.TouchMeta(100)
	e.TouchMeta(200)
	if len(e.Touches) != 2 || e.Touches[1] != 200 {
		t.Errorf("Touches = %v", e.Touches)
	}
	if e.LastAccess(3) != 7 {
		t.Error("LastAccess must read the Accesses map")
	}
	if e.LastAccess(9) != 0 {
		t.Error("unknown page must report 0")
	}
}
