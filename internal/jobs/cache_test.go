package jobs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/errfs"
)

// addressed returns a spec and the hash that addresses it, paired the
// way the program's Puts always pair them.
func addressed(name string) (hash string, spec []byte) {
	spec = []byte(`{"workload":"` + name + `"}`)
	return errfs.SumHex(spec), spec
}

// inMemory returns the number and total size of c's in-memory entries.
func inMemory(c *Cache) (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(100, "")
	if err != nil {
		t.Fatal(err)
	}
	h1, h2, h3 := hashOf("1"), hashOf("2"), hashOf("3")
	payload := bytes.Repeat([]byte("x"), 40)
	for _, h := range []string{h1, h2, h3} { // 120 bytes > 100: h1 evicts
		if err := c.Put(h, payload, []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(h1); ok {
		t.Error("oldest entry survived past MaxBytes")
	}
	for _, h := range []string{h2, h3} {
		if _, ok := c.Get(h); !ok {
			t.Errorf("entry %s evicted while within budget", h[:8])
		}
	}
	if n, bytes := inMemory(c); n != 2 || bytes != 80 {
		t.Errorf("entries=%d bytes=%d, want 2/80", n, bytes)
	}
	// Recency: touch h2, insert h4 — h3 (now coldest) goes.
	c.Get(h2)
	h4 := hashOf("4")
	if err := c.Put(h4, payload, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(h3); ok {
		t.Error("LRU evicted by insertion order, not recency")
	}
	if _, ok := c.Get(h2); !ok {
		t.Error("recently used entry evicted")
	}
}

func TestCacheOversizedEntryStillServes(t *testing.T) {
	c, err := NewCache(10, "")
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("y"), 1000)
	h := hashOf("big")
	if err := c.Put(h, big, nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(h); !ok || len(got) != 1000 {
		t.Error("an entry larger than MaxBytes must still be retained")
	}
}

func TestCacheDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	h, spec := addressed("zipf")
	if err := c.Put(h, []byte(`[{"cell":1}]`), spec); err != nil {
		t.Fatal(err)
	}
	// One entry file lands, carrying the spec for operators.
	if entry, err := os.ReadFile(filepath.Join(dir, h+".entry")); err != nil || !strings.Contains(string(entry), "zipf") {
		t.Errorf("entry file missing or without its spec: %q, %v", entry, err)
	}
	// A fresh cache over the same dir serves from disk (restart survival)
	// and promotes the entry into memory.
	c2, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(h)
	if !ok || string(got) != `[{"cell":1}]` {
		t.Fatalf("disk read-through = %q, %v", got, ok)
	}
	if n, _ := inMemory(c2); n != 1 {
		t.Error("disk hit was not promoted into memory")
	}
	// Nothing else is left: no sidecars, no temp files from atomic writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != h+".entry" {
			t.Errorf("stray file %s beside the entry", e.Name())
		}
	}
}

func TestCacheRejectsMalformedHashes(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",
		"short",
		strings.Repeat("G", 64),      // not hex
		strings.ToUpper(hashOf("x")), // wrong case
		"../../etc/passwd",           // traversal
		"..%2f" + hashOf("x")[:58],   // encoded traversal
		hashOf("x") + "/" + strings.Repeat("a", 3), // suffix path
	}
	for _, h := range bad {
		if err := c.Put(h, []byte("d"), nil); err == nil {
			t.Errorf("Put(%q) accepted a malformed hash", h)
		}
		if _, ok := c.Get(h); ok {
			t.Errorf("Get(%q) served a malformed hash", h)
		}
	}
	if !errfs.ValidHash(hashOf("x")) {
		t.Error("ValidHash rejects a real hash")
	}
}

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache(0, ""); err == nil {
		t.Error("MaxBytes 0 accepted")
	}
	// dir creation failure surfaces as an error, not a panic.
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCache(1, filepath.Join(file, "sub")); err == nil {
		t.Error("impossible cache dir accepted")
	}
}

// TestCacheDiskGC: the disk budget evicts oldest-written entry files,
// never the newest entry, and an unbounded cache removes nothing.
func TestCacheDiskGC(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	result := bytes.Repeat([]byte("r"), 100)
	var hashes []string
	for i := 0; i < 5; i++ {
		h, spec := addressed(fmt.Sprint("gc-", i))
		hashes = append(hashes, h)
		if err := c.Put(h, result, spec); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so oldest-first is well defined even on coarse
		// filesystem clocks.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, h+".entry"), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file must neither count toward the budget nor be removed.
	stray := filepath.Join(dir, ".cache-leftover")
	if err := os.WriteFile(stray, []byte("tmp"), 0o644); err != nil {
		t.Fatal(err)
	}

	onDisk := func() map[string]bool {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, e := range entries {
			out[e.Name()] = true
		}
		return out
	}
	if got := onDisk(); len(got) != 6 { // 5 entries + stray
		t.Fatalf("precondition: %d files on disk, want 6", len(got))
	}

	// Budget for two entries: the three oldest must go, newest stays.
	info, err := os.Stat(filepath.Join(dir, hashes[0]+".entry"))
	if err != nil {
		t.Fatal(err)
	}
	c.SetMaxDiskBytes(2 * info.Size())
	got := onDisk()
	if !got[stray[len(dir)+1:]] {
		t.Error("GC removed a non-cache file")
	}
	for _, h := range hashes[:3] {
		if got[h+".entry"] {
			t.Errorf("oldest entry %s survived eviction", h[:12])
		}
		if _, ok := c.Get(h); !ok {
			t.Errorf("evicted-from-disk entry %s lost its memory copy too", h[:12])
		}
	}
	for _, h := range hashes[3:] {
		if !got[h+".entry"] {
			t.Errorf("entry %s inside the budget was evicted", h[:12])
		}
	}

	// Put enforces the budget as it writes: adding a sixth entry evicts
	// again, down to the two newest.
	h6, spec6 := addressed("gc-6")
	if err := c.Put(h6, result, spec6); err != nil {
		t.Fatal(err)
	}
	got = onDisk()
	if !got[h6+".entry"] {
		t.Fatal("freshly put entry evicted itself")
	}
	if n := len(got) - 1; n > 2 { // less the stray
		t.Fatalf("%d entries on disk after Put, budget holds 2", n)
	}

	// An oversized single entry still persists: the newest never goes.
	c.SetMaxDiskBytes(1)
	got = onDisk()
	if !got[h6+".entry"] {
		t.Fatal("the newest entry must survive any budget")
	}
}

// TestCacheDiskGCRacesConcurrentPutGet hammers a tightly-budgeted disk
// store from writers, readers, and budget changes at once. gcDisk deletes
// files other goroutines are reading and re-writing; under -race this
// pins that the cache stays coherent: a Get either misses or returns
// EXACTLY the bytes put under that hash — never a torn or foreign value —
// and no Put/Remove interleaving wedges an error or leaks a temp file.
func TestCacheDiskGCRacesConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	// A tiny memory tier forces most Gets through the disk path that GC is
	// concurrently deleting from.
	c, err := NewCache(64, dir)
	if err != nil {
		t.Fatal(err)
	}
	const nHashes = 8
	hashes := make([]string, nHashes)
	specs := make([][]byte, nHashes)
	payloads := make([][]byte, nHashes)
	for i := range hashes {
		hashes[i], specs[i] = addressed(fmt.Sprint("race-", i))
		payloads[i] = []byte(fmt.Sprintf(`[{"cell":%d,"pad":%q}]`, i, strings.Repeat("p", 50+i)))
	}
	entry := int64(len(encodeEntry(payloads[0], specs[0])))
	c.SetMaxDiskBytes(2 * entry) // budget for ~2 entries: every Put overflows

	const iters = 150
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (i + g) % nHashes
				if err := c.Put(hashes[k], payloads[k], specs[k]); err != nil {
					t.Errorf("concurrent Put: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (i*3 + g) % nHashes
				if data, ok := c.Get(hashes[k]); ok && !bytes.Equal(data, payloads[k]) {
					t.Errorf("Get(%s) returned corrupt bytes %q", hashes[k][:8], data)
					return
				}
			}
		}(g)
	}
	// A third hand re-tightens the budget, forcing full GC scans that race
	// the writers' own post-Put scans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			c.SetMaxDiskBytes(entry)
			c.SetMaxDiskBytes(4 * entry)
		}
	}()
	wg.Wait()

	// The store settles coherent: re-put entries serve their exact bytes,
	// and the directory holds only entry files (no temp leaks and nothing
	// quarantined).
	for i, h := range hashes {
		if err := c.Put(h, payloads[i], specs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if data, ok := c.Get(hashes[nHashes-1]); !ok || !bytes.Equal(data, payloads[nHashes-1]) {
		t.Error("freshly re-put entry does not serve after the storm")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := errfs.CutHash(e.Name(), ".entry"); !ok {
			t.Errorf("stray file %q left in the store after concurrent GC", e.Name())
		}
	}
}

// TestCacheDiskGCSkipsQuarantineAndJournal: the disk budget must never
// count or delete the quarantine dir or the job journal living beside the
// store files — evicting quarantined evidence or the crash ledger to make
// room for results would be silent data loss.
func TestCacheDiskGCSkipsQuarantineAndJournal(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	// A quarantined entry and a journal, both fat enough that counting
	// them would blow any budget below.
	qdir := filepath.Join(dir, errfs.QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	quarantined := filepath.Join(qdir, hashOf("rotten")+".entry")
	if err := os.WriteFile(quarantined, bytes.Repeat([]byte("q"), 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "journal.wal")
	if err := os.WriteFile(journal, bytes.Repeat([]byte("j"), 4096), 0o644); err != nil {
		t.Fatal(err)
	}

	result := bytes.Repeat([]byte("r"), 100)
	var hashes []string
	var entry int64
	for i := 0; i < 3; i++ {
		h, spec := addressed(fmt.Sprint("zipf-", i))
		hashes = append(hashes, h)
		entry = int64(len(encodeEntry(result, spec)))
		if err := c.Put(h, result, spec); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, h+".entry"), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// Budget fits one entry only if the journal and quarantine bytes are
	// NOT counted; if GC counted them it would evict everything evictable.
	c.SetMaxDiskBytes(entry)

	if _, err := os.Stat(quarantined); err != nil {
		t.Errorf("GC touched the quarantine dir: %v", err)
	}
	if data, err := os.ReadFile(journal); err != nil || len(data) != 4096 {
		t.Errorf("GC touched the journal: %d bytes, %v", len(data), err)
	}
	if _, err := os.Stat(filepath.Join(dir, hashes[2]+".entry")); err != nil {
		t.Errorf("newest entry evicted: %v", err)
	}
	for _, h := range hashes[:2] {
		if _, err := os.Stat(filepath.Join(dir, h+".entry")); err == nil {
			t.Errorf("entry %s survived a one-entry budget, so GC counted foreign bytes", h[:12])
		}
	}

	// The scrubber likewise walks past both: nothing quarantined twice,
	// nothing scanned that is not a store entry.
	rep := c.Scrub()
	if rep.Scanned != 1 { // the surviving entry
		t.Errorf("scrub scanned %d entries, want 1 (journal/quarantine must be skipped)", rep.Scanned)
	}
	if rep.Quarantined != 0 || rep.Errors != 0 {
		t.Errorf("scrub over a healthy store: %+v", rep)
	}
	if _, err := os.Stat(quarantined); err != nil {
		t.Errorf("scrub touched the quarantine dir: %v", err)
	}
	if data, err := os.ReadFile(journal); err != nil || len(data) != 4096 {
		t.Errorf("scrub touched the journal: %d bytes, %v", len(data), err)
	}
}
