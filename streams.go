package hybridtier

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/registry"
	"repro/internal/trace"
)

// maxSharedStreamAccesses bounds the memory pre-generated shared streams
// may hold (4 bytes per access packed → 128 MB): no single stream may be
// longer — such a run generates live in every cell — and the stream cache
// retains no more than this in total.
const maxSharedStreamAccesses = 32 << 20

// maxStreamEntries bounds the cache's entry count. Entries that record
// "this key does not share" hold no accesses, so the access budget alone
// would let them pile up in a long-lived daemon.
const maxStreamEntries = 64

// streamKey identifies a generated op stream. A registry workload's
// factory is a pure function of its params and seed, and a clock-free
// instance's stream depends on nothing else, so two sweeps with equal keys
// replay the same accesses — whichever policies and ratios they cross.
type streamKey struct {
	workload string         // normalized registry name or composition spec
	params   WorkloadParams // Seed holds the cell's seed
	ops      int64
}

// streamKey returns the identity of the experiment's op stream, or false
// when the stream has none to retain it under: a WithWorkloadFunc factory
// is opaque, and a trace:<path> leaf names a file whose bytes may change.
func (e *Experiment) streamKey() (streamKey, bool) {
	if e.wfunc != nil || e.wname == "" {
		return streamKey{}, false
	}
	name, err := registry.Workloads.Normalize(e.wname)
	if err != nil {
		return streamKey{}, false
	}
	if traced, _ := registry.Workloads.HasTraceWorkload(name); traced {
		return streamKey{}, false
	}
	p := e.params
	p.Seed = e.seed
	return streamKey{workload: name, params: p, ops: e.ops}, true
}

// streamEntry is one key's slot in the cache.
type streamEntry struct {
	key streamKey
	// ready closes when the generating sweep has finished, either way.
	ready chan struct{}
	// rs, once ready, is the packed stream — or nil: the key does not share
	// (the workload is not clock-free, or its stream does not pack), which
	// is remembered so no later sweep regenerates it to find out.
	rs *trace.ReplaySource
	// elem is the entry's place in the LRU list; nil while generating and
	// again once evicted.
	elem *list.Element
}

// streamCache retains packed op streams across sweeps, keyed by identity:
// a fleet worker's shards of one sweep, a later sweep over the same
// workload with other policies, and a resumed sweep all replay the stream
// the first of them generated. It holds at most budget accesses, evicting
// least recently used streams first. Streams in use are pinned by their
// forks, not by the cache: eviction only unlinks, and the garbage collector
// reclaims an evicted stream once no running sweep's forks read it.
type streamCache struct {
	mu       sync.Mutex
	budget   int
	entries  map[streamKey]*streamEntry
	lru      *list.List // *streamEntry, most recently used first
	retained int        // accesses held by linked entries
}

func newStreamCache(budget int) *streamCache {
	return &streamCache{budget: budget, entries: map[streamKey]*streamEntry{}, lru: list.New()}
}

// streams is the process-wide cache every Sweep shares.
var streams = newStreamCache(maxSharedStreamAccesses)

// generator packs one stream. A nil stream with a nil error means the key
// does not share; an error means nothing was learned (the workload failed
// to build, the sweep was canceled) and the next sweep should try again.
type generator func() (*trace.ReplaySource, error)

// get returns key's stream, running gen at most once however many sweeps
// ask at the same time: the first generates, the rest wait for it. A nil
// stream means the cells generate live.
//
// An entry in the map is either being generated (elem nil, ready open) or
// linked into the LRU list; one whose generation learned nothing, or that
// was evicted, is in neither — so a sweep that waited looks the key up
// again rather than trust the entry it waited on.
func (c *streamCache) get(ctx context.Context, key streamKey, gen generator) *trace.ReplaySource {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		e := c.entries[key]
		if e == nil {
			e = &streamEntry{key: key, ready: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			made, err := gen()
			c.mu.Lock()
			close(e.ready)
			if err != nil {
				delete(c.entries, key)
				return nil
			}
			e.rs = made
			e.elem = c.lru.PushFront(e)
			if made != nil {
				c.retained += made.Accesses()
			}
			c.evictLocked()
		} else if e.elem == nil {
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
			}
			c.mu.Lock()
			if ctx.Err() != nil {
				return nil
			}
			continue
		}
		c.lru.MoveToFront(e.elem)
		return e.rs
	}
}

// evictLocked unlinks least recently used entries until the cache is
// within its bounds. The newest entry sits at the front and fits the
// budget by itself, so the walk stops before reaching it.
func (c *streamCache) evictLocked() {
	for c.retained > c.budget || c.lru.Len() > maxStreamEntries {
		e := c.lru.Remove(c.lru.Back()).(*streamEntry)
		e.elem = nil
		delete(c.entries, e.key)
		if e.rs != nil {
			c.retained -= e.rs.Accesses()
		}
	}
}

// ctxSource ends its stream once ctx is done, which NewReplaySource treats
// as a source that ran dry: generation stops within one batch of a cancel.
// shift is the workload's ShiftSource face, nil when it has none: the
// embedded BatchSource may be an adapter that hides it.
type ctxSource struct {
	trace.BatchSource
	shift trace.ShiftSource
	ctx   context.Context
}

func (s ctxSource) NextBatch(dst []trace.Access, max int) []trace.Access {
	if s.ctx.Err() != nil {
		return dst
	}
	return s.BatchSource.NextBatch(dst, max)
}

// ShiftTime implements trace.ShiftSource so the packed stream keeps the
// workload's shift marks.
func (s ctxSource) ShiftTime() int64 {
	if s.shift == nil {
		return -1
	}
	return s.shift.ShiftTime()
}
