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
	h := hashOf("disk")
	if err := c.Put(h, []byte(`[{"cell":1}]`), []byte(`{"workload":"zipf"}`)); err != nil {
		t.Fatal(err)
	}
	// Both files land, atomically named.
	if _, err := os.Stat(filepath.Join(dir, h+".json")); err != nil {
		t.Errorf("result file missing: %v", err)
	}
	if spec, err := os.ReadFile(filepath.Join(dir, h+".spec.json")); err != nil || !strings.Contains(string(spec), "zipf") {
		t.Errorf("spec sidecar missing or wrong: %q, %v", spec, err)
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
	// No leftover temp files from atomic writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".atomic-") {
			t.Errorf("leftover temp file %s", e.Name())
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

// TestCacheDiskGC: the disk budget evicts oldest-written result+sidecar
// pairs, never the newest entry, and an unbounded cache removes nothing.
func TestCacheDiskGC(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	result := bytes.Repeat([]byte("r"), 100)
	spec := []byte(`{"workload":"zipf"}`)
	var hashes []string
	for i := 0; i < 5; i++ {
		h := hashOf(strings.Repeat("x", i+1))
		hashes = append(hashes, h)
		if err := c.Put(h, result, spec); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so oldest-first is well defined even on coarse
		// filesystem clocks.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		for _, p := range []string{
			filepath.Join(dir, h+".json"),
			filepath.Join(dir, h+".spec.json"),
			filepath.Join(dir, h+".sum"),
		} {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
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
	if got := onDisk(); len(got) != 16 { // 5 result+spec+sum trios + stray
		t.Fatalf("precondition: %d files on disk, want 16", len(got))
	}

	// Budget for two trios: the three oldest must go, newest stays. The
	// .sum sidecar is 64 hex bytes.
	trio := int64(len(result)+len(spec)) + 64
	c.SetMaxDiskBytes(2 * trio)
	got := onDisk()
	if !got[stray[len(dir)+1:]] {
		t.Error("GC removed a non-cache file")
	}
	for _, h := range hashes[:3] {
		if got[h+".json"] || got[h+".spec.json"] || got[h+".sum"] {
			t.Errorf("oldest entry %s survived eviction", h[:12])
		}
		if _, ok := c.Get(h); !ok {
			t.Errorf("evicted-from-disk entry %s lost its memory copy too", h[:12])
		}
	}
	for _, h := range hashes[3:] {
		if !got[h+".json"] || !got[h+".spec.json"] || !got[h+".sum"] {
			t.Errorf("entry %s inside the budget was evicted", h[:12])
		}
	}

	// Put enforces the budget as it writes: adding a sixth entry evicts
	// again, down to the two newest.
	h6 := hashOf("sixth")
	if err := c.Put(h6, result, spec); err != nil {
		t.Fatal(err)
	}
	got = onDisk()
	if !got[h6+".json"] {
		t.Fatal("freshly put entry evicted itself")
	}
	var pairs int
	for name := range got {
		if strings.HasSuffix(name, ".json") && !strings.HasSuffix(name, ".spec.json") {
			pairs++
		}
	}
	if pairs > 2 {
		t.Fatalf("%d results on disk after Put, budget holds 2", pairs)
	}

	// An oversized single entry still persists: the newest never goes.
	c.SetMaxDiskBytes(1)
	got = onDisk()
	if !got[h6+".json"] {
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
	payloads := make([][]byte, nHashes)
	for i := range hashes {
		hashes[i] = hashOf(fmt.Sprint("race-", i))
		payloads[i] = []byte(fmt.Sprintf(`[{"cell":%d,"pad":%q}]`, i, strings.Repeat("p", 50+i)))
	}
	pair := int64(len(payloads[0]) + 2)
	c.SetMaxDiskBytes(2 * pair) // budget for ~2 entries: every Put overflows

	const iters = 150
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (i + g) % nHashes
				if err := c.Put(hashes[k], payloads[k], []byte("{}")); err != nil {
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
			c.SetMaxDiskBytes(pair)
			c.SetMaxDiskBytes(4 * pair)
		}
	}()
	wg.Wait()

	// The store settles coherent: re-put entries serve their exact bytes,
	// and the directory holds only well-formed names (no temp leaks).
	for i, h := range hashes {
		if err := c.Put(h, payloads[i], []byte("{}")); err != nil {
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
		name := e.Name()
		if _, ok := errfs.CutHash(name, ".spec.json"); ok {
			continue
		}
		if _, ok := errfs.CutHash(name, ".json"); ok {
			continue
		}
		if _, ok := errfs.CutHash(name, ".sum"); ok {
			continue
		}
		t.Errorf("stray file %q left in the store after concurrent GC", name)
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
	quarantined := filepath.Join(qdir, hashOf("rotten")+".json")
	if err := os.WriteFile(quarantined, bytes.Repeat([]byte("q"), 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "journal.wal")
	if err := os.WriteFile(journal, bytes.Repeat([]byte("j"), 4096), 0o644); err != nil {
		t.Fatal(err)
	}

	result := bytes.Repeat([]byte("r"), 100)
	var hashes []string
	var specLen int
	for i := 0; i < 3; i++ {
		// Spec-addressed, as in production, so the scrub below verifies
		// rather than quarantines the spec sidecar.
		spec := []byte(fmt.Sprintf(`{"workload":"zipf","pad":%d}`, i))
		specLen = len(spec)
		h := errfs.SumHex(spec)
		hashes = append(hashes, h)
		if err := c.Put(h, result, spec); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		for _, suffix := range []string{".json", ".spec.json", ".sum"} {
			if err := os.Chtimes(filepath.Join(dir, h+suffix), old, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	trio := int64(len(result)+specLen) + 64
	// Budget fits one trio only if the journal and quarantine bytes are
	// NOT counted; if GC counted them it would evict everything evictable.
	c.SetMaxDiskBytes(trio)

	if _, err := os.Stat(quarantined); err != nil {
		t.Errorf("GC touched the quarantine dir: %v", err)
	}
	if data, err := os.ReadFile(journal); err != nil || len(data) != 4096 {
		t.Errorf("GC touched the journal: %d bytes, %v", len(data), err)
	}
	if _, err := os.Stat(filepath.Join(dir, hashes[2]+".json")); err != nil {
		t.Errorf("newest entry evicted: %v", err)
	}
	for _, h := range hashes[:2] {
		if _, err := os.Stat(filepath.Join(dir, h+".json")); err == nil {
			t.Errorf("entry %s survived a one-trio budget, so GC counted foreign bytes", h[:12])
		}
	}

	// The scrubber likewise walks past both: nothing quarantined twice,
	// nothing scanned that is not a store entry.
	rep := c.Scrub()
	if rep.Scanned != 2 { // surviving result + its spec sidecar
		t.Errorf("scrub scanned %d entries, want 2 (journal/quarantine must be skipped)", rep.Scanned)
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
