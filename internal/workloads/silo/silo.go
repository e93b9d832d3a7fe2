// Package silo reimplements the substrate behind the paper's Silo workload
// (§5.3): an in-memory key-value database engine driven by YCSB. The
// database index is a real bulk-loaded B+tree whose nodes occupy pages in
// the simulated address space; every lookup walks root→leaf and then touches
// the record's heap page, which is the access pattern PEBS observes from
// Silo's Masstree.
//
// YCSB-C (the paper's input) is 100% reads with Zipf(0.99) key popularity
// and, critically, a *stationary* distribution — every key stays equally hot
// for the whole run. §6.1 notes this favors pure frequency histograms
// (Memtis); reproducing that effect requires reproducing the stationarity,
// which this generator does.
package silo

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Tree geometry: nodes are sized to fill one 4 KB page.
const (
	// LeafKeys is the number of keys per leaf node (8 B key + 8 B value
	// pointer = 16 B per entry → 256 entries per 4 KB page).
	LeafKeys = 256
	// InnerFanout is the number of children per inner node.
	InnerFanout = 256
	// RecordBytes is the heap record payload size (YCSB default: 10 fields
	// × 100 B ≈ 1 KB, matching Memtis' Silo setup).
	RecordBytes = 1024
)

// zipfS is the key-popularity exponent (YCSB's default).
const zipfS = 0.99

// Config parameterizes the database workload.
type Config struct {
	// Records is the number of loaded keys.
	Records int
	// Seed makes the instance deterministic.
	Seed uint64
}

// Default returns the paper's configuration: YCSB-C over a loaded store.
func Default(seed uint64) Config {
	return Config{
		Records: 1 << 21, // 2M records ≈ 2 GB of records + index
		Seed:    seed,
	}
}

// node is one B+tree node; it occupies exactly one page.
type node struct {
	page mem.PageID
	keys []uint64 // separator keys (inner) or stored keys (leaf)
	kids []int32  // child node indices (inner only)
	recs []int32  // record ids (leaf only)
}

// DB is the key-value engine. It implements trace.Source when driven by
// its YCSB generator.
type DB struct {
	cfg      Config
	rng      *xrand.RNG
	zipf     *xrand.Zipf
	nodes    []node
	root     int32
	keyToRec []int32 // dense key space: key i -> record id
	recBase  mem.PageID
	numPages int
}

var _ trace.Source = (*DB)(nil)

// New bulk-loads a B+tree over cfg.Records sequential keys with records
// placed in load order in the heap region. Keys are hashed so that adjacent
// keys do not share leaf pages with adjacent records (YCSB loads in key
// order but accesses by hashed popularity).
func New(cfg Config) (*DB, error) {
	if cfg.Records < LeafKeys {
		return nil, fmt.Errorf("silo: need at least %d records, got %d", LeafKeys, cfg.Records)
	}
	rng := xrand.New(cfg.Seed)
	db := &DB{
		cfg:  cfg,
		rng:  rng,
		zipf: xrand.NewZipf(rng, zipfS, uint64(cfg.Records)),
	}
	db.bulkLoad()
	return db, nil
}

// bulkLoad builds leaves over the sorted key space, then stacks inner
// levels until a single root remains.
func (db *DB) bulkLoad() {
	n := db.cfg.Records
	nextPage := mem.PageID(0)
	newNode := func() int32 {
		id := int32(len(db.nodes))
		db.nodes = append(db.nodes, node{page: nextPage})
		nextPage++
		return id
	}

	// Leaf level: keys 0..n-1 in order, record ids assigned in key order.
	var level []int32
	db.keyToRec = make([]int32, n)
	for i := range db.keyToRec {
		db.keyToRec[i] = int32(i)
	}
	for lo := 0; lo < n; lo += LeafKeys {
		hi := lo + LeafKeys
		if hi > n {
			hi = n
		}
		id := newNode()
		nd := &db.nodes[id]
		nd.keys = make([]uint64, 0, hi-lo)
		nd.recs = make([]int32, 0, hi-lo)
		for k := lo; k < hi; k++ {
			nd.keys = append(nd.keys, uint64(k))
			nd.recs = append(nd.recs, db.keyToRec[k])
		}
		level = append(level, id)
	}

	// Inner levels.
	for len(level) > 1 {
		var up []int32
		for lo := 0; lo < len(level); lo += InnerFanout {
			hi := lo + InnerFanout
			if hi > len(level) {
				hi = len(level)
			}
			id := newNode()
			nd := &db.nodes[id]
			nd.kids = append(nd.kids, level[lo:hi]...)
			// Separator keys: first key of each child after the first.
			for _, child := range level[lo+1 : hi] {
				nd.keys = append(nd.keys, db.firstKey(child))
			}
			up = append(up, id)
		}
		level = up
	}
	db.root = level[0]

	// Record heap follows the index region.
	db.recBase = nextPage
	recPages := (int64(n)*RecordBytes + mem.RegularPageBytes - 1) / mem.RegularPageBytes
	db.numPages = int(nextPage) + int(recPages)
}

func (db *DB) firstKey(id int32) uint64 {
	nd := &db.nodes[id]
	if len(nd.kids) == 0 {
		return nd.keys[0]
	}
	return db.firstKey(nd.kids[0])
}

// recordPage returns the heap page holding record rec.
func (db *DB) recordPage(rec int32) mem.PageID {
	return db.recBase + mem.PageID(int64(rec)*RecordBytes/mem.RegularPageBytes)
}

// Get walks the tree for key, appending every touched page to dst, and
// reports whether the key exists.
func (db *DB) Get(key uint64, dst []trace.Access) ([]trace.Access, bool) {
	id := db.root
	for {
		nd := &db.nodes[id]
		dst = append(dst, trace.Access{Page: nd.page})
		if len(nd.kids) == 0 {
			i := searchGE(nd.keys, key)
			if i >= len(nd.keys) || nd.keys[i] != key {
				return dst, false
			}
			dst = append(dst, trace.Access{Page: db.recordPage(nd.recs[i])})
			return dst, true
		}
		id = nd.kids[searchGT(nd.keys, key)]
	}
}

// searchGE returns the first index with keys[i] >= key: sort.Search's
// answer without its per-probe closure call, which dominated tree descent
// in profiles.
func searchGE(keys []uint64, key uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] >= key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// searchGT is searchGE with a strict bound.
func searchGT(keys []uint64, key uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Name implements trace.Source: the database under the paper's YCSB-C mix.
func (db *DB) Name() string { return "silo-ycsbc" }

// NumPages implements trace.Source.
func (db *DB) NumPages() int { return db.numPages }

// AdvanceTime implements trace.Source.
func (db *DB) AdvanceTime(int64) {}

// NextOp implements trace.Source: one YCSB-C read. Key popularity is Zipf
// over *hashed* keys, YCSB's scrambled-Zipfian: hot keys are spread
// uniformly across the key space rather than clustered at low keys.
func (db *DB) NextOp(dst []trace.Access) []trace.Access {
	rank := db.zipf.Next()
	key := xrand.Hash64Seed(rank, db.cfg.Seed) % uint64(db.cfg.Records)
	// YCSB draws each op's read/update coin; under YCSB-C it always reads,
	// but the draw advances the RNG the Zipf sampler shares, so dropping it
	// would change every silo stream and result byte.
	db.rng.Float64()
	dst, _ = db.Get(key, dst)
	return dst
}

// NextBatch implements trace.BatchSource: YCSB ops are independent draws
// with no time-driven behaviour, so they generate back to back.
func (db *DB) NextBatch(dst []trace.Access, max int) []trace.Access {
	for i := 0; i < max; i++ {
		dst = db.NextOp(dst)
		dst[len(dst)-1].EndOp = true
	}
	return dst
}

// ClockFree implements trace.ClockFree: YCSB generation ignores the clock.
func (db *DB) ClockFree() bool { return true }
