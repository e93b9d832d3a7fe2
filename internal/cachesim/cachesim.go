// Package cachesim models a two-level CPU cache hierarchy (L1 data cache +
// shared last-level cache) with set-associative LRU replacement. The
// HybridTier paper's Observations 3 and §6.3.3 quantify how much L1/LLC miss
// traffic tiering *metadata* updates generate relative to the application;
// this simulator reproduces those experiments by attributing every access,
// and every miss, to an actor (the application or the tiering runtime).
//
// Addresses are plain byte offsets in a flat 64-bit space. Callers give each
// actor a disjoint address region (the simulator places tiering metadata far
// away from application data), so the model captures capacity and conflict
// interference between the two without needing a full memory map.
//
// Replacement is true LRU, and a set's only state is the order of its tags:
// most recently used first, empty slots last. A line's hit/miss sequence
// under LRU is a function of the access sequence alone, so this is
// outcome-identical to the textbook form (a last-use timestamp per way and
// a scan for the oldest) that the package's tests keep as the reference —
// the order of a set is exactly the order of those timestamps, and because
// empties always trail the valid tags a set fills before it evicts.
package cachesim

// Actor identifies who issued a memory access, for miss attribution.
type Actor uint8

// Actors distinguished by the overhead experiments.
const (
	App Actor = iota
	Tiering
	numActors
)

// LineBytes is the cache line size. All levels use 64-byte lines.
const LineBytes = 64

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity: LineBytes*Ways times a power-of-two
	// set count. New panics on anything else.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
}

// Stats counts accesses and misses per actor for one level.
type Stats struct {
	Accesses [numActors]uint64 `json:"accesses"`
	Misses   [numActors]uint64 `json:"misses"`
}

// TotalAccesses sums accesses over all actors.
func (s Stats) TotalAccesses() uint64 {
	var t uint64
	for _, v := range s.Accesses {
		t += v
	}
	return t
}

// TotalMisses sums misses over all actors.
func (s Stats) TotalMisses() uint64 {
	var t uint64
	for _, v := range s.Misses {
		t += v
	}
	return t
}

// TieringMissFraction returns the tiering thread's share of all misses at
// this level, the quantity plotted in Figures 5 and 13. Returns 0 when
// there are no misses.
func (s Stats) TieringMissFraction() float64 {
	t := s.TotalMisses()
	if t == 0 {
		return 0
	}
	return float64(s.Misses[Tiering]) / float64(t)
}

// level is one set-associative cache with true-LRU replacement per set. A
// set is ways consecutive tags kept in recency order, most recent first,
// and that order is the whole replacement state: a set that is filling has
// its empty slots (tag 0; a line is stored as line+1) behind every valid
// tag, so "the last slot" is an empty one until the set is full and the
// least recently used line from then on.
type level struct {
	ways  int
	mask  uint64   // sets-1; sets is a power of two
	tags  []uint64 // sets*ways entries
	stats Stats
}

func newLevel(c Config) level {
	if c.Ways <= 0 {
		panic("cachesim: Ways must be positive")
	}
	sets := c.SizeBytes / (LineBytes * c.Ways)
	if sets <= 0 || sets&(sets-1) != 0 || sets*LineBytes*c.Ways != c.SizeBytes {
		panic("cachesim: SizeBytes must be LineBytes*Ways times a power of two")
	}
	return level{ways: c.Ways, mask: uint64(sets - 1), tags: make([]uint64, sets*c.Ways)}
}

// access looks line up and makes it its set's most recent; it reports
// whether it hit. One pass does both: every tag ahead of the line moves one
// place towards the LRU end and the line takes the front. On a miss that is
// the whole set, and the tag that falls off the end is the victim.
func (l *level) access(line uint64, a Actor) bool {
	l.stats.Accesses[a]++
	base := int(line&l.mask) * l.ways
	set := l.tags[base : base+l.ways]
	stored := line + 1
	carry := stored
	for i, t := range set {
		set[i] = carry
		if t == stored {
			return true
		}
		carry = t
	}
	l.stats.Misses[a]++
	return false
}

// Hierarchy is an L1 + LLC pair. A miss in L1 is looked up in the LLC; LLC
// fills do not back-invalidate L1 (non-inclusive model), which is accurate
// enough for relative miss-fraction comparisons.
type Hierarchy struct {
	l1  level
	llc level
}

// DefaultConfig mirrors the evaluation machine's Xeon 4314 per-core L1d
// (48 KB, 12-way) and a scaled shared LLC. The LLC is scaled down with the
// workload footprints so the "metadata exceeds LLC" regime from §2.3.3 is
// preserved: the paper's 24 MB LLC vs hundreds-of-GB footprints becomes a
// 1 MB LLC vs hundreds-of-MB simulated footprints.
func DefaultConfig() (l1, llc Config) {
	return Config{SizeBytes: 48 << 10, Ways: 12}, Config{SizeBytes: 1 << 20, Ways: 16}
}

// New creates a hierarchy from per-level configs.
func New(l1, llc Config) *Hierarchy {
	return &Hierarchy{l1: newLevel(l1), llc: newLevel(llc)}
}

// NewDefault creates a hierarchy with DefaultConfig.
func NewDefault() *Hierarchy {
	l1, llc := DefaultConfig()
	return New(l1, llc)
}

// Access simulates one byte-address access by actor a, returning whether it
// hit in L1 and, if not, whether it hit in LLC.
func (h *Hierarchy) Access(addr int64, a Actor) (l1Hit, llcHit bool) {
	line := uint64(addr) / LineBytes
	if h.l1.access(line, a) {
		return true, true
	}
	return false, h.llc.access(line, a)
}

// L1 returns a copy of the L1 statistics.
func (h *Hierarchy) L1() Stats { return h.l1.stats }

// LLC returns a copy of the LLC statistics.
func (h *Hierarchy) LLC() Stats { return h.llc.stats }
