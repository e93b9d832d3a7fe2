package jobs

import (
	"bytes"
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/errfs"
)

// Cache is a content-addressed result store: canonical result bytes keyed
// by the canonical-spec SHA-256. Two tiers:
//
//   - an in-memory LRU bounded by MaxBytes, the hot tier every Get
//     consults first;
//   - optionally, an on-disk store, written through on Put and consulted
//     on memory misses, so results survive restarts and memory eviction.
//     SetMaxDiskBytes bounds it, evicting oldest-written entries first.
//
// Each stored result is one self-verifying file, <hash>.entry: a header
// line "htr1 <sum> <len(spec)>\n", the canonical spec, then the result,
// where <sum> is the SHA-256 of everything after it. A disk read whose
// bytes fail the sum, or that finds a torn or unknown-version file,
// quarantines the entry (moved under quarantine/, never served, never
// silently deleted) and reports a miss, so the daemon recomputes the
// result instead of serving a flipped bit forever. Scrub applies the
// same check to the whole store. NewCacheFS converts a store of the
// earlier three-file layout (<hash>.json, .sum, .spec.json) on open.
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
	converted    errfs.ScrubReport // the open's legacy conversion, folded into the next Scrub
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
// seam. nil fsys means the real disk. The temp files a crash left in the
// store are deleted, and an existing store of the earlier three-file
// layout is converted, before NewCacheFS returns.
func NewCacheFS(maxBytes int64, dir string, fsys errfs.FS) (*Cache, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("jobs: cache MaxBytes must be positive, got %d", maxBytes)
	}
	if fsys == nil {
		fsys = errfs.OS{}
	}
	c := &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		dir:      dir,
		fsys:     fsys,
	}
	if dir != "" {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: cache dir: %w", err)
		}
		// The store has one owner, which has written nothing yet.
		errfs.RemoveTemps(fsys, dir, 0)
		c.convertLegacy()
	}
	return c, nil
}

// Get returns the result stored under hash, consulting every tier:
// memory (hits refresh recency), then the disk store (hits verify their
// entry file and promote back into memory), then the remote tier
// installed by SetRemote (hits promote into memory only).
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
		if data, err := c.fsys.ReadFile(c.entryPath(hash)); err == nil {
			if _, result, ok := decodeEntry(data); ok {
				c.mu.Lock()
				e := c.insert(hash, result)
				c.mu.Unlock()
				return result, e.etag, true
			}
			// Verification failed: quarantine, then fall through to the
			// remote tier (or a miss, which recomputes on resubmit).
			errfs.Quarantine(c.fsys, c.dir, hash, entrySuffix)
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

// entrySuffix names a stored entry's one file; entryVersion opens its
// header. A file of any other version reads as corrupt.
const (
	entrySuffix  = ".entry"
	entryVersion = "htr1 "
)

// encodeEntry lays out one entry file: "htr1 <sum> <len(spec)>\n", the
// spec, the result, where <sum> covers everything after itself.
func encodeEntry(result, spec []byte) []byte {
	tail := slices.Concat([]byte(strconv.Itoa(len(spec))+"\n"), spec, result)
	return slices.Concat([]byte(entryVersion+errfs.SumHex(tail)+" "), tail)
}

// decodeEntry splits an entry file into spec and result, reporting ok only
// when the header's sum matches the bytes after it. The slices alias data.
func decodeEntry(data []byte) (spec, result []byte, ok bool) {
	const sumEnd = len(entryVersion) + 64
	if len(data) <= sumEnd || string(data[:len(entryVersion)]) != entryVersion || data[sumEnd] != ' ' ||
		errfs.SumHex(data[sumEnd+1:]) != string(data[len(entryVersion):sumEnd]) {
		return nil, nil, false
	}
	size, body, found := bytes.Cut(data[sumEnd+1:], []byte("\n"))
	n, err := strconv.Atoi(string(size))
	if !found || err != nil || n < 0 || n > len(body) {
		return nil, nil, false
	}
	return body[:n], body[n:], true
}

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
// error reports only a disk-store failure. spec, the canonical spec JSON
// that hash addresses, is stored with the result (so an operator can tell
// what a hash is) in one atomic, fsync'd write (file and directory): a
// crash leaves either the old store or the new entry, never a torn file.
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
	if err := errfs.WriteAtomic(c.fsys, c.entryPath(hash), encodeEntry(result, spec)); err != nil {
		return err
	}
	c.gcDisk()
	return nil
}

// Scrub verifies every entry file of the on-disk store, quarantining
// corrupt ones; the quarantine dir and non-store files (the job journal,
// stray temps) are never touched. The first pass after an open also
// counts the legacy entries the open converted or quarantined. Returns
// the pass's report, also retrievable via LastScrub.
func (c *Cache) Scrub() errfs.ScrubReport {
	c.mu.Lock()
	rep := c.converted
	c.converted = errfs.ScrubReport{}
	c.mu.Unlock()
	if c.dir != "" {
		entries, err := c.fsys.ReadDir(c.dir)
		if err != nil {
			rep.Errors++
		}
		for _, e := range entries {
			hash, ok := errfs.CutHash(e.Name(), entrySuffix)
			if !ok || e.IsDir() {
				continue // quarantine/, the journal, temp files
			}
			rep.Scanned++
			data, err := c.fsys.ReadFile(c.entryPath(hash))
			_, _, ok = decodeEntry(data)
			switch {
			case err != nil:
				if !os.IsNotExist(err) { // vanished = GC or quarantine raced the scan
					rep.Errors++
				}
			case !ok:
				errfs.Quarantine(c.fsys, c.dir, hash, entrySuffix)
				rep.Quarantined++
			default:
				rep.Verified++
			}
		}
	}
	return c.RecordScrub(rep)
}

// legacySuffixes name the files of one entry in the earlier three-file
// layout — the result, its sum sidecar, the spec — in the order
// convertLegacy removes them.
var legacySuffixes = []string{".json", ".sum", ".spec.json"}

// convertLegacy rewrites each entry of the three-file layout as one entry
// file, then removes the old files, result first, so a crash leaves a
// store the next open finishes: a surviving result converts again, and
// sidecars without their result are removed. A result with no sum is
// adopted with the sum of its bytes, and one whose sum mismatches is
// quarantined. A spec that does not hash to the address is quarantined
// alone, as the three-file scrub did, and its result converts without it.
func (c *Cache) convertLegacy() {
	entries, err := c.fsys.ReadDir(c.dir)
	if err != nil {
		c.converted.Errors++
		return
	}
	legacy := map[string]bool{}
	for _, e := range entries {
		for _, suffix := range legacySuffixes {
			if hash, ok := errfs.CutHash(e.Name(), suffix); ok && !e.IsDir() {
				legacy[hash] = true
			}
		}
	}
	for hash := range legacy {
		c.convertEntry(hash, &c.converted)
	}
}

// convertEntry converts one legacy entry (see convertLegacy).
func (c *Cache) convertEntry(hash string, rep *errfs.ScrubReport) {
	path := func(suffix string) string { return filepath.Join(c.dir, hash+suffix) }
	result, err := c.fsys.ReadFile(path(".json"))
	if err == nil {
		rep.Scanned++
		spec, specErr := c.fsys.ReadFile(path(".spec.json"))
		sum, sumErr := c.fsys.ReadFile(path(".sum"))
		switch {
		case sumErr != nil && !os.IsNotExist(sumErr), specErr != nil && !os.IsNotExist(specErr):
			rep.Errors++ // unreadable, not corrupt: the next open retries
			return
		case sumErr == nil && errfs.SumHex(result) != string(bytes.TrimSpace(sum)):
			errfs.Quarantine(c.fsys, c.dir, hash, legacySuffixes...)
			rep.Quarantined++
			return
		case specErr == nil && errfs.SumHex(spec) != hash:
			errfs.Quarantine(c.fsys, c.dir, hash, ".spec.json")
			rep.Quarantined++
			spec = nil
		}
		if err := errfs.WriteAtomic(c.fsys, c.entryPath(hash), encodeEntry(result, spec)); err != nil {
			rep.Errors++
			return
		}
		if sumErr != nil {
			rep.Adopted++
		} else {
			rep.Verified++
		}
	} else if !os.IsNotExist(err) {
		rep.Errors++
		return
	}
	for _, suffix := range legacySuffixes {
		_ = c.fsys.Remove(path(suffix)) // a failure leaves work for the next open
	}
}

// SetMaxDiskBytes bounds the on-disk store to n bytes of entry files,
// evicting oldest-written entries first once Put overflows it. Zero (the
// default) leaves the store unbounded. The newest entry always survives,
// so a single oversized result still persists and serves.
func (c *Cache) SetMaxDiskBytes(n int64) {
	c.mu.Lock()
	c.maxDiskBytes = n
	c.mu.Unlock()
	c.gcDisk()
}

// diskEntry is one stored entry during a GC scan: the hash, the entry
// file's size and its write time.
type diskEntry struct {
	hash  string
	size  int64
	mtime time.Time
}

// gcDisk enforces the disk budget. The scan walks the store directory
// fresh each time rather than tracking a running total: eviction is rare
// (only on overflow), crash-leftover temp files and hand-deleted entries
// would drift any in-memory ledger, and the directory holds at most a few
// thousand entries. Only entry files are counted or removed: the
// quarantine dir, the job journal, and stray temps are invisible to GC by
// construction.
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
		stored []diskEntry
		total  int64
	)
	for _, e := range entries {
		hash, ok := errfs.CutHash(e.Name(), entrySuffix)
		if !ok || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		stored = append(stored, diskEntry{hash: hash, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	if total <= budget {
		return
	}
	sort.Slice(stored, func(i, j int) bool { return stored[i].mtime.Before(stored[j].mtime) })
	for _, r := range stored[:max(len(stored)-1, 0)] { // the newest always stays
		if total <= budget {
			break
		}
		if err := c.fsys.Remove(c.entryPath(r.hash)); err == nil {
			total -= r.size
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

// entryPath is the on-disk location of a hash's entry file.
func (c *Cache) entryPath(hash string) string {
	return filepath.Join(c.dir, hash+entrySuffix)
}
