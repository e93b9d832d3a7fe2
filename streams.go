package hybridtier

import (
	"container/list"
	"context"
	"errors"
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
	// ready closes once the sweep that starts the stream has built its
	// workload and started packing, or found it does not share.
	ready chan struct{}
	// rs, once ready, is the stream — still packing until it is linked —
	// or nil: the key does not share (the workload is not clock-free, or
	// its stream does not pack), which is remembered so no later sweep
	// regenerates it to find out.
	rs *trace.ReplaySource
	// limit is the access bound rs packs under.
	limit int
	// elem is the entry's place in the LRU list; nil until the stream is
	// complete, and again once evicted.
	elem *list.Element
}

// streamCache retains packed op streams across sweeps, keyed by identity:
// a fleet worker's shards of one sweep, a later sweep over the same
// workload with other policies, and a resumed sweep all replay the stream
// the first of them generated — from the moment it starts packing, not
// only once it is complete. It holds at most budget accesses, evicting
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

// generator builds a workload and starts packing its stream under an
// access bound. A nil stream with a nil error means the key does not share;
// an error means nothing was learned (the workload failed to build) and the
// next sweep should try again.
type generator func(limit int) (*trace.ReplaySource, error)

// get returns key's stream, complete or still packing, and whether this
// call started it — then its caller settles the entry once packing has
// ended. However many sweeps ask at the same time, gen runs at most once:
// the first starts it and the rest attach to the stream it packs. A nil
// stream means the cells generate live.
//
// The stream never holds more than limit accesses: gen packs under that
// bound, and a stream that another sweep packs under a larger one is waited
// for and measured first.
func (c *streamCache) get(ctx context.Context, key streamKey, limit int, gen generator) (rs *trace.ReplaySource, mine bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		e := c.entries[key]
		switch {
		case e == nil:
			e = &streamEntry{key: key, ready: make(chan struct{}), limit: limit}
			c.entries[key] = e
			c.mu.Unlock()
			made, err := gen(limit)
			c.mu.Lock()
			close(e.ready)
			if err != nil {
				delete(c.entries, key)
				return nil, false
			}
			if e.rs = made; made == nil {
				c.linkLocked(e)
			}
			return made, made != nil
		case e.elem == nil && e.rs == nil:
			// Another sweep is building the workload.
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
			}
			c.mu.Lock()
			if ctx.Err() != nil {
				return nil, false
			}
		case e.elem == nil:
			// Another sweep's stream is packing.
			packing := e.rs
			if e.limit <= limit {
				return packing, false
			}
			c.mu.Unlock()
			select {
			case <-packing.Done():
			case <-ctx.Done():
			}
			c.mu.Lock()
			if ctx.Err() != nil || packing.Err() != nil || packing.Accesses() > limit {
				return nil, false
			}
			return packing, false
		default:
			c.lru.MoveToFront(e.elem)
			if e.rs != nil && e.rs.Accesses() > limit {
				return nil, false
			}
			return e.rs, false
		}
	}
}

// settle records how a stream this cache's get started has ended: a
// complete stream is retained, one that does not pack is remembered as not
// sharing — except when the packing sweep abandoned it for reasons of its
// own: it was canceled, or the stream outgrew a bound below the cache's
// (what the sweep's other streams left of it), which says nothing of the
// stream itself.
func (c *streamCache) settle(ctx context.Context, key streamKey, rs *trace.ReplaySource) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.rs != rs {
		return
	}
	switch err := rs.Err(); {
	case err == nil:
		c.retained += rs.Accesses()
	case ctx.Err() != nil || errors.Is(err, trace.ErrStreamTooLong) && e.limit < c.budget:
		delete(c.entries, key)
		return
	default:
		e.rs = nil
	}
	c.linkLocked(e)
}

// linkLocked makes a settled entry the most recently used one and evicts
// down to the cache's bounds.
func (c *streamCache) linkLocked(e *streamEntry) {
	e.elem = c.lru.PushFront(e)
	c.evictLocked()
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

// ctxSource ends its stream once ctx is done, which the packer takes for a
// source that ran dry: generation stops within one batch of a cancel.
type ctxSource struct {
	trace.BatchSource
	ctx context.Context
}

func (s ctxSource) NextBatch(dst []trace.Access, max int) []trace.Access {
	if s.ctx.Err() != nil {
		return dst
	}
	return s.BatchSource.NextBatch(dst, max)
}

// shiftCtxSource is the ctxSource of a workload with a ShiftSource face,
// which the embedded BatchSource may be an adapter that hides: it keeps
// the face, so the packed stream keeps the workload's shift marks and its
// forks are ShiftSources.
type shiftCtxSource struct {
	ctxSource
	shift trace.ShiftSource
}

func (s shiftCtxSource) ShiftTime() int64 { return s.shift.ShiftTime() }

// newCtxSource wraps w to end its stream once ctx is done, with the same
// ShiftSource face.
func newCtxSource(ctx context.Context, w trace.Source) trace.Source {
	src := ctxSource{trace.AsBatchSource(w), ctx}
	if shift, ok := w.(trace.ShiftSource); ok {
		return shiftCtxSource{src, shift}
	}
	return src
}
