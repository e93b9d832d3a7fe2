// Package pebs holds the sample side of hardware event-based memory-access
// sampling (Intel PEBS / AMD IBS). Real PEBS delivers, at a configured
// period, a buffer of records each holding the virtual address of a sampled
// load or store; tiering runtimes drain that buffer in batches (Algorithm 1
// in the paper). This package is that contract's data: the Sample record,
// the sampling Config, the Stats counters, and Buffer — the one bounded
// buffer that drops records under overload and is drained in batches. Who
// decides which accesses become samples (every Period-th one, or a bitmap
// scan) is internal/tracker's business; every tracker kind embeds a Buffer,
// so policies see one drain protocol whatever feeds it.
package pebs

import (
	"fmt"

	"repro/internal/mem"
)

// Sample is one sampled memory access.
type Sample struct {
	// Page is the accessed virtual page.
	Page mem.PageID
	// Tier is where the access was served from, mirroring PEBS data-source
	// encoding (local DRAM vs CXL), which Memtis-style systems use.
	Tier mem.Tier
	// Time is the virtual time of the access in nanoseconds.
	Time int64
}

// Config controls PEBS sampling.
type Config struct {
	// Period is the sampling period: one sample is taken every Period
	// accesses. Real deployments use periods in the hundreds to thousands
	// to bound overhead; the default mirrors that scaled to simulated
	// footprints.
	Period int
	// BufferSize is the capacity of the sample ring buffer. When the
	// consumer falls behind, new samples are dropped (as the hardware
	// does), and the drop is counted.
	BufferSize int
}

// DefaultConfig returns a sampling setup proportionate to the simulator's
// scaled-down footprints.
func DefaultConfig() Config {
	return Config{Period: 13, BufferSize: 1 << 16}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("pebs: Period must be positive, got %d", c.Period)
	}
	if c.BufferSize <= 0 {
		return fmt.Errorf("pebs: BufferSize must be positive, got %d", c.BufferSize)
	}
	return nil
}

// Stats counts sampling activity.
type Stats struct {
	Accesses uint64 `json:"accesses"`
	Sampled  uint64 `json:"sampled"`
	Dropped  uint64 `json:"dropped"`
	Drained  uint64 `json:"drained"`
}

// Buffer is the bounded sample buffer every tracker kind embeds: a ring
// that drops (and counts) new samples while full and is drained oldest
// first in batches. It is not safe for concurrent use.
type Buffer struct {
	ring    []Sample
	head    int // next write
	tail    int // next read
	size    int
	sampled uint64
	dropped uint64
	drained uint64
}

// NewBuffer returns a buffer of exactly size samples, reusing recycled's
// storage when it is large enough (the default size is a 2 MB allocation,
// worth recycling across sweep cells; a short or nil slice is ignored).
// Recycled storage is scrubbed on checkout: its contents are another run's
// samples, and although the head/tail/size protocol never reads an
// unwritten slot, clearing makes that a guarantee rather than an invariant
// — a buffer-handling bug can surface only zero samples, never a previous
// cell's pages leaking into this cell's policy decisions or drop counts.
func NewBuffer(recycled []Sample, size int) Buffer {
	if cap(recycled) < size {
		return Buffer{ring: make([]Sample, size)}
	}
	ring := recycled[:size]
	clear(ring)
	return Buffer{ring: ring}
}

// Take records one sample, or drops and counts it when the buffer is full
// (as the hardware does: drops happen at the producer, the oldest samples
// are kept).
func (b *Buffer) Take(s Sample) {
	b.sampled++
	if b.size == len(b.ring) {
		b.dropped++
		return
	}
	b.ring[b.head] = s
	if b.head++; b.head == len(b.ring) {
		b.head = 0
	}
	b.size++
}

// Pending returns the number of buffered samples.
func (b *Buffer) Pending() int { return b.size }

// Drain moves up to max buffered samples into dst (appending) and returns
// the extended slice. max <= 0 drains everything.
func (b *Buffer) Drain(dst []Sample, max int) []Sample {
	n := b.size
	if max > 0 && max < n {
		n = max
	}
	// At most two bulk copies: tail→end of ring, then a wrapped remainder.
	first := n
	if avail := len(b.ring) - b.tail; first > avail {
		first = avail
	}
	dst = append(dst, b.ring[b.tail:b.tail+first]...)
	if rest := n - first; rest > 0 {
		dst = append(dst, b.ring[:rest]...)
		b.tail = rest
	} else if b.tail += first; b.tail == len(b.ring) {
		b.tail = 0
	}
	b.size -= n
	b.drained += uint64(n)
	return dst
}

// Ring exposes the backing storage for reuse pools (NewBuffer's recycled
// argument); the buffer must not be used afterwards.
func (b *Buffer) Ring() []Sample { return b.ring }

// Stats assembles the counters around the access count, which the
// embedding tracker keeps: only it knows how many accesses stand behind
// each sample.
func (b *Buffer) Stats(accesses uint64) Stats {
	return Stats{Accesses: accesses, Sampled: b.sampled, Dropped: b.dropped, Drained: b.drained}
}
