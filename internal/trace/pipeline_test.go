package trace

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/xrand"
)

// burstSource emits ops of 1 to 40 accesses — one in 97 of them as long as
// long — on hashed pages; dense ops follow op denseFrom, when set, with
// ten times the accesses. It has only NextOp, so packing goes through the
// one-op adapter.
type burstSource struct {
	op        uint64
	long      int
	denseFrom uint64
}

func (b *burstSource) Name() string      { return "burst" }
func (b *burstSource) NumPages() int     { return 1 << 20 }
func (b *burstSource) AdvanceTime(int64) {}
func (b *burstSource) NextOp(dst []Access) []Access {
	h := xrand.Hash64(b.op)
	n := int(h%40) + 1
	if h%97 == 0 {
		n = b.long
	}
	if b.denseFrom > 0 && b.op >= b.denseFrom {
		n *= 10
	}
	for i := range n {
		p := xrand.Hash64Seed(uint64(i), h) % (1 << 20)
		dst = append(dst, Access{Page: mem.PageID(p), Write: p&1 == 0})
	}
	b.op++
	return dst
}

// readViews reads ops ops from a fork through NextPackedView with view
// sizes drawn from seed, and returns the words in order.
func readViews(t *testing.T, src Source, ops int, seed uint64) []uint32 {
	pv := src.(PackedViewSource)
	rng := xrand.New(seed)
	var out []uint32
	for got := 0; got < ops; {
		view := pv.NextPackedView(min(rng.Intn(700)+1, ops-got))
		if len(view) == 0 {
			t.Errorf("empty view after %d of %d ops", got, ops)
			return out
		}
		for _, v := range view {
			if v&2 != 0 {
				got++
			}
		}
		out = append(out, view...)
	}
	return out
}

// TestForksReadWhilePacking: forks taken before the first chunk is
// published read the stream as the packer grows it — two passes, so the
// wrap-around too — and every fork's words equal those of a fork of the
// completed stream, for chunks of one word (every op longer than a chunk)
// up to the default size. Run it under -race: forks and the packer share
// only what publish hands over.
func TestForksReadWhilePacking(t *testing.T) {
	const ops = 20_000
	for _, chunk := range []int{1, 64, 4096, chunkWords} {
		t.Run(fmt.Sprint(chunk), func(t *testing.T) {
			rs := startReplay(&burstSource{long: 5000}, ops, 1<<24, chunk)
			forks := make([][]uint32, 8)
			var wg sync.WaitGroup
			for i := range forks {
				fork := rs.Fork()
				wg.Add(1)
				go func() {
					defer wg.Done()
					forks[i] = readViews(t, fork, 2*ops, uint64(i+1))
				}()
			}
			wg.Wait()
			if rs.Err() != nil {
				t.Fatalf("packing failed: %v", rs.Err())
			}
			if publishedOps(rs) != ops {
				t.Fatalf("Ops = %d, want %d", publishedOps(rs), ops)
			}
			want := readViews(t, rs.Fork(), 2*ops, 99)
			if len(want) != 2*rs.Accesses() {
				t.Fatalf("two passes read %d words of a %d-access stream", len(want), rs.Accesses())
			}
			for i, got := range forks {
				if !slices.Equal(got, want) {
					t.Errorf("fork %d read other words than the completed stream", i)
				}
			}
		})
	}
}

// TestAbandonedStreamEndsItsForks: a stream that outgrows its bound after
// its first chunks are out stops where it was: forks read the published
// ops, then get empty views, and Err names the bound. A stream whose first
// batch already projects it past the bound publishes nothing before it is
// abandoned.
func TestAbandonedStreamEndsItsForks(t *testing.T) {
	const ops = 40_000
	// About 21 accesses per op until op 8192, ten times as many after.
	rs := startReplay(&burstSource{long: 1, denseFrom: 8192}, ops, 1_000_000, 4096)
	fork := rs.Fork().(PackedViewSource)
	read := 0
	for {
		view := fork.NextPackedView(512)
		if len(view) == 0 {
			break
		}
		read += len(view)
	}
	if !errors.Is(rs.Err(), ErrStreamTooLong) {
		t.Fatalf("Err = %v, want ErrStreamTooLong", rs.Err())
	}
	if read == 0 || read != rs.Accesses() {
		t.Errorf("fork read %d words; the stream published %d before it was abandoned", read, rs.Accesses())
	}
	if len(fork.NextPackedView(512)) != 0 {
		t.Error("a fork of an abandoned stream must keep returning empty views")
	}

	held := startReplay(&burstSource{long: 1}, ops, 100_000, 4096)
	if view := held.Fork().(PackedViewSource).NextPackedView(512); len(view) != 0 || held.Accesses() != 0 {
		t.Errorf("a stream projected past its bound published %d accesses", held.Accesses())
	}
	if !errors.Is(held.Err(), ErrStreamTooLong) {
		t.Fatalf("Err = %v, want ErrStreamTooLong", held.Err())
	}
	if NewReplaySource(&burstSource{long: 1}, ops, 100_000) != nil {
		t.Error("NewReplaySource must return nil for a stream that does not pack")
	}
}
