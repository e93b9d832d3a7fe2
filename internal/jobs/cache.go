package jobs

import (
	"bytes"
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/errfs"
)

// Cache is a content-addressed result store: canonical result bytes keyed
// by the canonical-spec SHA-256. Two tiers:
//
//   - an in-memory LRU bounded by MaxBytes, the hot tier every Get
//     consults first;
//   - optionally, an on-disk store (one <hash>.json per result, plus the
//     canonical spec as <hash>.spec.json for operators and a <hash>.sum
//     integrity sidecar holding the result bytes' own SHA-256) that is
//     written through on Put and consulted on memory misses, so results
//     survive restarts and memory eviction. SetMaxDiskBytes bounds it,
//     evicting oldest-written entries first.
//
// The cache key is the spec's hash, not the result's, so the result bytes
// cannot be checked against their own file name; the .sum sidecar closes
// that gap. A disk read whose bytes no longer match the sidecar is
// quarantined (moved under quarantine/, never served, never silently
// deleted) and reported as a miss, so the daemon recomputes the result on
// the next request instead of serving a flipped bit forever. Scrub walks
// the whole store applying the same checks proactively.
//
// All disk I/O goes through an errfs.FS (fsync-on-write, fsync-on-rename
// via errfs.WriteAtomic), so tests can prove crash-safety by injection.
//
// SetRemote adds an optional third, read-through tier: a fetch function
// (in the fleet, a probe of peer daemons — internal/fabric) consulted
// after both local tiers miss. A remote hit promotes into memory only;
// the peer that computed the result already persists it, so writing it to
// this disk would duplicate storage without adding durability. Peers
// probing each other MUST answer from GetLocal, never Get, or two empty
// caches would recurse forever.
//
// Because keys are content hashes of canonical specs and results are
// deterministic, a stored value is immutable: there is no invalidation,
// only eviction. Callers must treat returned byte slices as read-only.
// All methods are safe for concurrent use.
type Cache struct {
	mu           sync.Mutex
	maxBytes     int64
	bytes        int64
	ll           *list.List // front = most recently used
	items        map[string]*list.Element
	dir          string
	fsys         errfs.FS
	maxDiskBytes int64 // 0 = unbounded
	remote       func(hash string) ([]byte, bool)
	errfs.ScrubLog
}

// cacheEntry is one resident result. etag is the entry's preformatted
// strong entity tag (`"<hash>"`) as a ready-to-assign header value slice,
// built once at insert so the HTTP cache-hit path serves without a single
// per-request allocation (no string concatenation, no []string for the
// header map). The slice is shared by concurrent requests and must never
// be mutated.
type cacheEntry struct {
	hash string
	data []byte
	etag []string
}

// NewCache builds a cache holding up to maxBytes of result bytes in
// memory (minimum one entry is always kept, so a single oversized result
// still serves). dir, when non-empty, enables the on-disk store; it is
// created if missing.
func NewCache(maxBytes int64, dir string) (*Cache, error) {
	return NewCacheFS(maxBytes, dir, nil)
}

// NewCacheFS is NewCache with an explicit filesystem — the fault-injection
// seam. nil fsys means the real disk.
func NewCacheFS(maxBytes int64, dir string, fsys errfs.FS) (*Cache, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("jobs: cache MaxBytes must be positive, got %d", maxBytes)
	}
	if fsys == nil {
		fsys = errfs.OS{}
	}
	if dir != "" {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: cache dir: %w", err)
		}
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		dir:      dir,
		fsys:     fsys,
	}, nil
}

// Get returns the result stored under hash, consulting every tier:
// memory (hits refresh recency), then the disk store (hits verify against
// the integrity sidecar and promote back into memory), then the remote
// tier installed by SetRemote (hits promote into memory only).
func (c *Cache) Get(hash string) ([]byte, bool) {
	data, _, ok := c.get(hash, true)
	return data, ok
}

// GetTagged is Get plus the entry's preformatted strong entity tag: a
// shared, immutable, length-1 header value slice holding `"<hash>"`.
// It exists for the daemon's cache-hit serving path, which assigns the
// slice straight into the response header map — etag[0] is the tag string
// for If-None-Match comparison. Callers must not mutate the slice.
func (c *Cache) GetTagged(hash string) (data []byte, etag []string, ok bool) {
	return c.get(hash, true)
}

// GetLocal is Get restricted to the local tiers (memory and disk). It is
// the answer a daemon gives when a PEER probes it: serving probes from
// local state only is what keeps two caches remote-probing each other
// from recursing.
func (c *Cache) GetLocal(hash string) ([]byte, bool) {
	data, _, ok := c.get(hash, false)
	return data, ok
}

func (c *Cache) get(hash string, remoteOK bool) ([]byte, []string, bool) {
	if !errfs.ValidHash(hash) {
		return nil, nil, false
	}
	c.mu.Lock()
	if el, ok := c.items[hash]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		return e.data, e.etag, true
	}
	remote := c.remote
	c.mu.Unlock()
	if c.dir != "" {
		if data, err := c.fsys.ReadFile(c.resultPath(hash)); err == nil {
			if c.verifyResult(hash, data) {
				c.mu.Lock()
				e := c.insert(hash, data)
				c.mu.Unlock()
				return data, e.etag, true
			}
			// Verification failed: the entry was quarantined; fall through
			// to the remote tier (or a miss, which recomputes on resubmit).
		}
	}
	// The remote fetch runs outside mu — it is a network round trip — so
	// concurrent Gets for different hashes never serialize behind it.
	if remoteOK && remote != nil {
		if data, ok := remote(hash); ok && data != nil {
			c.mu.Lock()
			e := c.insert(hash, data)
			c.mu.Unlock()
			return data, e.etag, true
		}
	}
	return nil, nil, false
}

// verifyResult checks disk-read result bytes against the .sum sidecar.
// A missing sidecar is accepted (entries written before sums existed;
// Scrub adopts them); a mismatching one means the result or the sidecar
// rotted, and the entry is quarantined rather than served.
func (c *Cache) verifyResult(hash string, data []byte) bool {
	sum, err := c.fsys.ReadFile(c.sumPath(hash))
	if err != nil {
		return true
	}
	if errfs.SumHex(data) == string(bytes.TrimSpace(sum)) {
		return true
	}
	errfs.Quarantine(c.fsys, c.dir, hash, entrySuffixes...)
	return false
}

// entrySuffixes name the files of one stored entry: the result, its
// integrity sidecar, and the canonical spec.
var entrySuffixes = []string{".json", ".sum", ".spec.json"}

// SetRemote installs fetch as the cache's remote read-through tier,
// consulted only after both local tiers miss. In the sweep fabric this is
// how a cell computed anywhere becomes a hit everywhere: workers probe
// the coordinator, the coordinator probes its workers. fetch must be safe
// for concurrent use and must answer peers' probes from GetLocal (see the
// type comment). nil uninstalls the tier.
func (c *Cache) SetRemote(fetch func(hash string) ([]byte, bool)) {
	c.mu.Lock()
	c.remote = fetch
	c.mu.Unlock()
}

// Put stores result under hash, writing through to the disk store when
// one is configured. The memory insert always succeeds; the returned
// error reports only a disk-store failure. Each on-disk write is atomic
// and fsync'd (file and directory), so a crash leaves either the old
// store or the new entry, never a torn file. spec (the canonical spec
// JSON) is archived beside the result so an operator can tell what a hash
// is without reversing it; it is not needed to serve Get.
func (c *Cache) Put(hash string, result, spec []byte) error {
	if !errfs.ValidHash(hash) {
		return fmt.Errorf("jobs: invalid cache hash %q", hash)
	}
	c.mu.Lock()
	c.insert(hash, result)
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	if err := errfs.WriteAtomic(c.fsys, c.resultPath(hash), result); err != nil {
		return err
	}
	// The integrity sidecar lands after the result: a crash between the
	// two leaves a result with no sum, which reads as a legacy entry until
	// the scrubber adopts it — degraded verification, never a false alarm.
	if err := errfs.WriteAtomic(c.fsys, c.sumPath(hash), []byte(errfs.SumHex(result))); err != nil {
		return err
	}
	// The spec sidecar is best-effort metadata: its loss never loses a
	// result, so its write shares the result's error but not its fate.
	if err := errfs.WriteAtomic(c.fsys, filepath.Join(c.dir, hash+".spec.json"), spec); err != nil {
		return err
	}
	c.gcDisk()
	return nil
}

// Scrub walks the on-disk store verifying every entry: result bytes
// against their .sum sidecar (adopting legacy entries that predate sums),
// spec sidecars against the addressed hash directly. Corrupt entries are
// quarantined. The quarantine dir and non-store files (the job journal,
// stray temps) are skipped, never touched. Returns the pass's report,
// also retrievable via LastScrub.
func (c *Cache) Scrub() errfs.ScrubReport {
	var rep errfs.ScrubReport
	if c.dir != "" {
		entries, err := c.fsys.ReadDir(c.dir)
		if err != nil {
			rep.Errors++
		}
		for _, e := range entries {
			if e.IsDir() {
				continue // quarantine/ and anything else nested
			}
			name := e.Name()
			if hash, ok := errfs.CutHash(name, ".spec.json"); ok {
				rep.Scanned++
				c.scrubSpec(hash, &rep)
				continue
			}
			if hash, ok := errfs.CutHash(name, ".json"); ok {
				rep.Scanned++
				c.scrubResult(hash, &rep)
			}
			// .sum sidecars are checked with their result; journal and temp
			// files fail the hash-stem check and are left alone.
		}
	}
	return c.RecordScrub(rep)
}

func (c *Cache) scrubResult(hash string, rep *errfs.ScrubReport) {
	data, err := c.fsys.ReadFile(c.resultPath(hash))
	if err != nil {
		if !os.IsNotExist(err) { // vanished = GC or quarantine raced the scan
			rep.Errors++
		}
		return
	}
	sum, err := c.fsys.ReadFile(c.sumPath(hash))
	if err != nil {
		if os.IsNotExist(err) {
			// Legacy entry from before integrity sidecars: adopt it by
			// recording the sum of the bytes we have. If they were already
			// rotten this blesses the rot — unavoidable without a second
			// copy — but every later flip is caught.
			if werr := errfs.WriteAtomic(c.fsys, c.sumPath(hash), []byte(errfs.SumHex(data))); werr != nil {
				rep.Errors++
				return
			}
			rep.Adopted++
			return
		}
		rep.Errors++
		return
	}
	if errfs.SumHex(data) != string(bytes.TrimSpace(sum)) {
		errfs.Quarantine(c.fsys, c.dir, hash, entrySuffixes...)
		rep.Quarantined++
		return
	}
	rep.Verified++
}

func (c *Cache) scrubSpec(hash string, rep *errfs.ScrubReport) {
	data, err := c.fsys.ReadFile(filepath.Join(c.dir, hash+".spec.json"))
	if err != nil {
		if !os.IsNotExist(err) { // vanished = GC or quarantine raced the scan
			rep.Errors++
		}
		return
	}
	// The spec's hash IS the address, so it verifies with no sidecar.
	if errfs.SumHex(data) != hash {
		errfs.Quarantine(c.fsys, c.dir, hash, ".spec.json")
		rep.Quarantined++
		return
	}
	rep.Verified++
}

// SetMaxDiskBytes bounds the on-disk store to n bytes of results plus
// sidecars, evicting oldest-written entries first once Put overflows it.
// Zero (the default) leaves the store unbounded. The newest entry always
// survives, so a single oversized result still persists and serves.
func (c *Cache) SetMaxDiskBytes(n int64) {
	c.mu.Lock()
	c.maxDiskBytes = n
	c.mu.Unlock()
	c.gcDisk()
}

// diskEntry is one stored result during a GC scan: the hash, the combined
// size of result and sidecar, and the result's write time.
type diskEntry struct {
	hash  string
	size  int64
	mtime time.Time
}

// gcDisk enforces the disk budget. The scan walks the store directory
// fresh each time rather than tracking a running total: eviction is rare
// (only on overflow), crash-leftover temp files and hand-deleted results
// would drift any in-memory ledger, and the directory holds at most a few
// thousand entries. Only hash-named store files are counted or removed:
// the quarantine dir, the job journal, and stray temps are invisible to
// GC by construction.
func (c *Cache) gcDisk() {
	c.mu.Lock()
	budget := c.maxDiskBytes
	dir := c.dir
	c.mu.Unlock()
	if dir == "" || budget <= 0 {
		return
	}
	entries, err := c.fsys.ReadDir(dir)
	if err != nil {
		return
	}
	var (
		results []diskEntry
		total   int64
		sidecar = map[string]int64{} // by full file name
	)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		info, err := e.Info()
		if err != nil {
			continue
		}
		if _, ok := errfs.CutHash(name, ".spec.json"); ok {
			sidecar[name] = info.Size()
			total += info.Size()
			continue
		}
		if _, ok := errfs.CutHash(name, ".sum"); ok {
			sidecar[name] = info.Size()
			total += info.Size()
			continue
		}
		if hash, ok := errfs.CutHash(name, ".json"); ok {
			results = append(results, diskEntry{hash: hash, size: info.Size(), mtime: info.ModTime()})
			total += info.Size()
		}
	}
	if total <= budget {
		return
	}
	sort.Slice(results, func(i, j int) bool { return results[i].mtime.Before(results[j].mtime) })
	for _, r := range results[:max(len(results)-1, 0)] { // the newest always stays
		if total <= budget {
			break
		}
		// Remove the result first: once it is gone the entry cannot be
		// served, so a crash between the removes leaks only sidecars,
		// which the next GC scan still counts and retries.
		if err := c.fsys.Remove(c.resultPath(r.hash)); err != nil {
			continue
		}
		total -= r.size
		for _, suffix := range []string{".spec.json", ".sum"} {
			name := r.hash + suffix
			if err := c.fsys.Remove(filepath.Join(c.dir, name)); err == nil {
				total -= sidecar[name]
			}
		}
	}
}

// insert adds or refreshes a memory entry and evicts from the cold end
// past MaxBytes, returning the resident entry. Callers hold mu.
func (c *Cache) insert(hash string, data []byte) *cacheEntry {
	if el, ok := c.items[hash]; ok {
		// Content-addressed: same hash, same bytes. Refresh recency only.
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	e := &cacheEntry{hash: hash, data: data, etag: []string{`"` + hash + `"`}}
	el := c.ll.PushFront(e)
	c.items[hash] = el
	c.bytes += int64(len(data))
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		cold := c.ll.Back()
		ce := cold.Value.(*cacheEntry)
		c.ll.Remove(cold)
		delete(c.items, ce.hash)
		c.bytes -= int64(len(ce.data))
	}
	return e
}

// resultPath is the on-disk location of a hash's result bytes.
func (c *Cache) resultPath(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// sumPath is the on-disk location of a hash's integrity sidecar: the hex
// SHA-256 of the RESULT bytes (the hash itself addresses the spec).
func (c *Cache) sumPath(hash string) string {
	return filepath.Join(c.dir, hash+".sum")
}
