package tier

import (
	"reflect"
	"testing"

	"repro/internal/mem"
)

// countingEnv records every Charge and Promote a Reclaimer makes.
type countingEnv struct {
	*NopEnv
	charges  []float64
	promotes int
}

func (e *countingEnv) Charge(ns float64) {
	e.charges = append(e.charges, ns)
	e.NopEnv.Charge(ns)
}

func (e *countingEnv) Promote(p mem.PageID) error {
	e.promotes++
	return e.NopEnv.Promote(p)
}

// newReclaimEnv returns an env over 16 pages whose 4-page fast tier holds
// exactly the given pages.
func newReclaimEnv(t *testing.T, fast ...mem.PageID) *countingEnv {
	t.Helper()
	m, err := mem.New(mem.Config{
		NumPages: 16, FastPages: 4,
		PageBytes: mem.RegularPageBytes, Alloc: mem.AllocSlow,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fast {
		m.Touch(p)
		if err := m.Promote(p); err != nil {
			t.Fatal(err)
		}
	}
	return &countingEnv{NopEnv: &NopEnv{M: m}}
}

func TestReclaimerResumesAndWraps(t *testing.T) {
	env := newReclaimEnv(t, 2, 5, 9, 13)
	var r Reclaimer
	var order []mem.PageID
	keep := func(p mem.PageID) bool { order = append(order, p); return false }
	// A target of 0 is met after every visit: each walk visits one page.
	for i := 0; i < 6; i++ {
		r.Walk(env, 0, 1, keep)
		if v, d := len(order), env.M.Stats().Demotions; v != i+1 || d != 0 {
			t.Fatalf("walk %d: visited %d demoted %d in all, want %d and 0", i, v, d, i+1)
		}
	}
	if want := []mem.PageID{2, 5, 9, 13, 2, 5}; !reflect.DeepEqual(order, want) {
		t.Fatalf("visit order %v, want %v", order, want)
	}
}

func TestReclaimerDueOncePerInterval(t *testing.T) {
	var r Reclaimer
	if !r.Due(ReclaimIntervalNs) {
		t.Fatal("first walk refused")
	}
	if r.Due(2*ReclaimIntervalNs - 1) {
		t.Fatal("second walk allowed inside the interval")
	}
	if !r.Due(2 * ReclaimIntervalNs) {
		t.Fatal("walk refused once the interval elapsed")
	}
}

func TestReclaimerWalkStopsAtTarget(t *testing.T) {
	env := newReclaimEnv(t, 2, 5, 9, 13)
	var r Reclaimer
	visited := 0
	cold := func(mem.PageID) bool { visited++; return true }
	r.Walk(env, 2, 1, cold)
	if demoted := env.M.Stats().Demotions; visited != 2 || demoted != 2 || env.M.FastFree() != 2 {
		t.Fatalf("visited %d demoted %d free %d, want 2, 2, 2", visited, demoted, env.M.FastFree())
	}
	if env.M.TierOf(2) != mem.Slow || env.M.TierOf(5) != mem.Slow || env.M.TierOf(9) != mem.Fast {
		t.Fatal("walk demoted the wrong pages")
	}
}

func TestReclaimerChargesOncePerWalk(t *testing.T) {
	env := newReclaimEnv(t, 2, 5, 9, 13)
	var r Reclaimer
	// Nothing is cold, so the walk covers the whole tier without meeting
	// its target.
	visited := 0
	r.Walk(env, 4, 7.5, func(mem.PageID) bool { visited++; return false })
	if visited != 4 {
		t.Fatalf("visited %d, want 4", visited)
	}
	if want := []float64{4 * 7.5}; !reflect.DeepEqual(env.charges, want) {
		t.Fatalf("charges %v, want %v", env.charges, want)
	}
	// An empty fast tier still makes its one (zero) charge.
	empty := newReclaimEnv(t)
	visited = 0
	r.Walk(empty, 1, 7.5, func(mem.PageID) bool { visited++; return true })
	if visited != 0 {
		t.Fatalf("empty tier: visited %d", visited)
	}
	if want := []float64{0}; !reflect.DeepEqual(empty.charges, want) {
		t.Fatalf("empty tier charges %v, want %v", empty.charges, want)
	}
}

func TestPromoteOrReclaim(t *testing.T) {
	// Room available: promoted at once, no reclaim.
	env := newReclaimEnv(t, 2)
	env.M.Touch(7)
	reclaims := 0
	PromoteOrReclaim(env, 7, func() { reclaims++ })
	if env.M.TierOf(7) != mem.Fast || reclaims != 0 || env.promotes != 1 {
		t.Fatalf("tier %v reclaims %d promotes %d, want fast, 0 and 1", env.M.TierOf(7), reclaims, env.promotes)
	}

	// Full tier: reclaim once, retry once.
	env = newReclaimEnv(t, 2, 5, 9, 13)
	env.M.Touch(7)
	reclaims = 0
	freeOne := func() { reclaims++; env.Demote(2) }
	PromoteOrReclaim(env, 7, freeOne)
	if reclaims != 1 || env.promotes != 2 {
		t.Fatalf("reclaims %d promotes %d, want 1 and 2", reclaims, env.promotes)
	}
	if env.M.TierOf(7) != mem.Fast {
		t.Fatal("page not promoted after reclaim")
	}

	// Reclaim frees nothing: still one reclaim and one retry, then give up.
	env = newReclaimEnv(t, 2, 5, 9, 13)
	env.M.Touch(7)
	reclaims = 0
	PromoteOrReclaim(env, 7, func() { reclaims++ })
	if env.M.TierOf(7) != mem.Slow || reclaims != 1 || env.promotes != 2 {
		t.Fatalf("tier %v reclaims %d promotes %d, want slow, 1 and 2", env.M.TierOf(7), reclaims, env.promotes)
	}
}
