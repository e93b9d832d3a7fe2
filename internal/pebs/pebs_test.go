package pebs

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{{Period: 0, BufferSize: 10}, {Period: 10, BufferSize: 0}}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
}

func TestSampleContents(t *testing.T) {
	b := NewBuffer(nil, 8)
	want := Sample{Page: 2, Tier: mem.Slow, Time: 200}
	b.Take(want)
	got := b.Drain(nil, 0)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("drained %+v, want [%+v]", got, want)
	}
}

// refRing is the sample ring as it stood before Buffer replaced it — the
// body tracker.sampleRing and pebs.Sampler both carried, with its
// checkout — kept verbatim as the reference Buffer is held to. Do not
// "improve" it: its value is that it is the old code.
type refRing struct {
	buf     []Sample
	head    int // next write
	tail    int // next read
	size    int
	sampled uint64
	dropped uint64
	drained uint64
}

func refCheckoutRing(recycled []Sample, size int) []Sample {
	if cap(recycled) >= size {
		r := recycled[:size]
		clear(r)
		return r
	}
	return make([]Sample, size)
}

func (r *refRing) take(s Sample) {
	r.sampled++
	if r.size == len(r.buf) {
		r.dropped++
		return
	}
	r.buf[r.head] = s
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.size++
}

func (r *refRing) drain(dst []Sample, max int) []Sample {
	n := r.size
	if max > 0 && max < n {
		n = max
	}
	first := n
	if avail := len(r.buf) - r.tail; first > avail {
		first = avail
	}
	dst = append(dst, r.buf[r.tail:r.tail+first]...)
	if rest := n - first; rest > 0 {
		dst = append(dst, r.buf[:rest]...)
		r.tail = rest
	} else if r.tail += first; r.tail == len(r.buf) {
		r.tail = 0
	}
	r.size -= n
	r.drained += uint64(n)
	return dst
}

// driveAgainstReference reads script as a program over one Buffer and one
// refRing: the first three bytes pick the buffer size (1–32) and the
// recycled slice both are checked out of (absent, too short, exact or
// oversized — and dirty), every later pair is one call: Take, a burst of
// Takes long enough to overflow, Drain(max) or Drain(≤0). After every call
// the drained samples, Pending, every Stats counter and the backing
// storage itself must agree, and Buffer must conserve samples on its own
// account: sampled == dropped + drained + Pending().
func driveAgainstReference(t *testing.T, script []byte) {
	t.Helper()
	if len(script) < 3 {
		return
	}
	size := int(script[0])%32 + 1
	dirty := func() []Sample {
		if script[1]%4 == 0 {
			return nil
		}
		r := make([]Sample, int(script[2])%(2*size+1))
		for i := range r {
			r[i] = Sample{Page: 999, Tier: mem.Slow, Time: 42}
		}
		return r
	}
	buf := NewBuffer(dirty(), size)
	ref := refRing{buf: refCheckoutRing(dirty(), size)}

	var accesses uint64
	var got, want []Sample
	step := 0
	check := func(call string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("step %d %s: drained %v, reference %v", step, call, got, want)
		}
		if buf.Pending() != ref.size {
			t.Fatalf("step %d %s: Pending %d, reference %d", step, call, buf.Pending(), ref.size)
		}
		st := buf.Stats(accesses)
		if st != (Stats{Accesses: accesses, Sampled: ref.sampled, Dropped: ref.dropped, Drained: ref.drained}) {
			t.Fatalf("step %d %s: Stats %+v, reference sampled %d dropped %d drained %d",
				step, call, st, ref.sampled, ref.dropped, ref.drained)
		}
		if !slices.Equal(buf.Ring(), ref.buf) {
			t.Fatalf("step %d %s: storage %v, reference %v", step, call, buf.Ring(), ref.buf)
		}
		if st.Sampled != st.Dropped+st.Drained+uint64(buf.Pending()) {
			t.Fatalf("step %d %s: %d sampled != %d dropped + %d drained + %d pending",
				step, call, st.Sampled, st.Dropped, st.Drained, buf.Pending())
		}
	}
	take := func(arg byte) {
		accesses++
		s := Sample{Page: mem.PageID(accesses), Tier: mem.Tier(arg & 1), Time: int64(step)}
		buf.Take(s)
		ref.take(s)
	}
	check("checkout")
	for script = script[3:]; len(script) >= 2; script = script[2:] {
		step++
		op, arg := script[0]%8, script[1]
		got, want = got[:0], want[:0]
		switch {
		case op < 4:
			take(arg)
			check("Take")
		case op == 4:
			for n := size + int(arg)%4; n > 0; n-- {
				take(arg)
			}
			check("Take burst")
		case op < 7:
			max := int(arg)%(size+2) + 1
			got, want = buf.Drain(got, max), ref.drain(want, max)
			check("Drain(max)")
		default:
			max := -int(arg & 1) // max <= 0 drains everything
			got, want = buf.Drain(got, max), ref.drain(want, max)
			check("Drain(0)")
		}
	}
}

// fuzzSeeds are scripts that reach each corner by construction; the fuzz
// target starts from them and TestBufferMatchesReference runs them first.
var fuzzSeeds = [][]byte{
	{3, 0, 0, 0, 1, 0, 2, 0, 3, 0, 0, 0, 1, 7, 0},             // fresh 4-ring: five Takes (one drop), drain all
	{3, 1, 8, 4, 1, 5, 1, 0, 0, 0, 0, 7, 0},                   // oversized dirty slice, overflowing burst, Drain(2), refill and drain across the seam
	{7, 1, 2, 0, 0, 7, 0, 7, 1},                               // recycled slice too short; draining an empty ring
	{0, 1, 1, 0, 0, 0, 0, 5, 0, 0, 0, 7, 0},                   // one-slot ring: the second Take drops
	{4, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 4, 0, 0, 7, 0}, // exact-size dirty slice; Drain(5) leaves the tail exactly at the end
}

// TestBufferMatchesReference holds Buffer to the pre-fold ring, call by
// call, over the hand-written corners and 300 seeded random scripts —
// which is also where the conservation invariant is checked, after every
// call of every script.
func TestBufferMatchesReference(t *testing.T) {
	for _, s := range fuzzSeeds {
		driveAgainstReference(t, s)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		script := make([]byte, 3+2*(1+rng.Intn(400)))
		rng.Read(script)
		driveAgainstReference(t, script)
	}
}

func FuzzBufferMatchesReference(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(driveAgainstReference)
}
