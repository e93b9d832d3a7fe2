// Package corpus is the content-addressed trace store behind the
// experiment service's upload API and the "corpus:<hash>" workload
// scheme. A trace is addressed by the SHA-256 of its file bytes, so the
// hash pins the exact access stream: the same name can never silently
// mean different data, which is what lets a corpus workload participate
// in the service's content-addressed result cache where a mutable
// trace:<path> cannot (docs/SERVICE.md).
//
// The disk layout mirrors the jobs result cache: one <hash>.htrc holding
// the trace bytes verbatim, plus a <hash>.meta.json sidecar with the
// decoded header and counts for listings. Writes go through
// internal/errfs with the full fsync/rename discipline, so a crashed
// upload never leaves a half-written trace that a later replay would
// open; because a trace's address IS the hash of its bytes, every entry
// is self-verifying — reads re-check it, and entries that fail move to a
// quarantine/ sidecar dir instead of being served (docs/DURABILITY.md).
// A quarantined trace heals on re-upload: content addressing makes the
// replacement byte-identical by construction.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/errfs"
	"repro/internal/tracefile"
)

// Meta describes one stored trace: its address, size, and the decoded
// header and counts, so listings and submit-time checks never reopen the
// trace bytes.
type Meta struct {
	// Hash is the SHA-256 of the trace file bytes, lowercase hex.
	Hash string `json:"hash"`
	// SizeBytes is the stored file size.
	SizeBytes int64 `json:"size_bytes"`
	// FormatVersion is the trace container version (1 or 2).
	FormatVersion int `json:"format_version"`
	// Workload, NumPages, Seed, and Shift echo the trace header.
	Workload string `json:"workload"`
	NumPages int    `json:"num_pages"`
	Seed     uint64 `json:"seed"`
	Shift    bool   `json:"shift,omitempty"`
	// Ops and Accesses are the full-scan counts Stat verified.
	Ops      int64 `json:"ops"`
	Accesses int64 `json:"accesses"`
}

// Store is a content-addressed trace collection rooted at one directory.
// Stored traces are immutable — same hash, same bytes — so there is no
// invalidation and no locking around reads of the files themselves; the
// mutex guards only the in-memory index. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	fsys errfs.FS

	mu    sync.RWMutex
	index map[string]Meta
	// verified memoizes Path's full-content hash check per process: a
	// trace that verified once cannot rot in the index's lifetime view
	// without a scrub noticing, and replays open traces repeatedly.
	verified map[string]bool
	errfs.ScrubLog
}

// Open opens (creating if needed) the store rooted at dir and indexes the
// traces already present. A sidecar whose hash does not match its file
// name or fails to parse is skipped; an indexed trace whose file size
// disagrees with its sidecar (a truncated or padded .htrc) is quarantined
// instead of indexed — the store stays usable; the damaged entry is just
// invisible until re-uploaded.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, nil)
}

// OpenFS is Open with an explicit filesystem — the fault-injection seam.
// nil fsys means the real disk.
func OpenFS(dir string, fsys errfs.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("corpus: store dir must not be empty")
	}
	if fsys == nil {
		fsys = errfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: store dir: %w", err)
	}
	s := &Store{dir: dir, fsys: fsys, index: map[string]Meta{}, verified: map[string]bool{}}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: scan %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		hash, ok := errfs.CutHash(name, ".meta.json")
		if !ok {
			continue
		}
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var m Meta
		if json.Unmarshal(data, &m) != nil || m.Hash != hash {
			continue
		}
		info, err := fsys.Stat(s.tracePath(hash))
		if err != nil {
			continue
		}
		if info.Size() != m.SizeBytes {
			// The cheap truncation check: the bytes on disk cannot hash to
			// the address if even their length is wrong. Quarantine now
			// rather than fail a replay later.
			errfs.Quarantine(s.fsys, s.dir, hash, entrySuffixes...)
			continue
		}
		s.index[hash] = m
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of stored traces.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Get returns the metadata stored under hash.
func (s *Store) Get(hash string) (Meta, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.index[hash]
	return m, ok
}

// List returns every stored trace's metadata, sorted by hash.
func (s *Store) List() []Meta {
	s.mu.RLock()
	out := make([]Meta, 0, len(s.index))
	for _, m := range s.index {
		out = append(out, m)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}

// Path returns the on-disk trace file for hash, for callers that open the
// bytes directly (the registry resolver, the bytes endpoint). The first
// Path per process re-hashes the file and verifies it against the
// address; a mismatch quarantines the entry and returns an error, so a
// replay can never run over silently corrupted trace bytes. Later calls
// reuse the verification.
func (s *Store) Path(hash string) (string, error) {
	if !errfs.ValidHash(hash) {
		return "", fmt.Errorf("corpus: invalid trace hash %q", hash)
	}
	s.mu.RLock()
	_, ok := s.index[hash]
	done := s.verified[hash]
	s.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("corpus: trace %s not in store", hash)
	}
	if !done {
		ok, err := s.check(hash)
		if err != nil {
			return "", fmt.Errorf("corpus: read trace %s: %w", hash, err)
		}
		if !ok {
			return "", fmt.Errorf("corpus: trace %s failed integrity verification and was quarantined; re-upload to heal", hash)
		}
	}
	return s.tracePath(hash), nil
}

// check re-hashes a stored trace against its address. A match is
// memoized; a mismatch de-indexes the entry and quarantines it. err
// reports only a failed read.
func (s *Store) check(hash string) (ok bool, err error) {
	data, err := s.fsys.ReadFile(s.tracePath(hash))
	if err != nil {
		return false, err
	}
	if errfs.SumHex(data) != hash {
		s.mu.Lock()
		delete(s.index, hash)
		delete(s.verified, hash)
		s.mu.Unlock()
		errfs.Quarantine(s.fsys, s.dir, hash, entrySuffixes...)
		return false, nil
	}
	s.mu.Lock()
	s.verified[hash] = true
	s.mu.Unlock()
	return true, nil
}

// entrySuffixes name the files of one stored trace: the bytes and their
// metadata sidecar.
var entrySuffixes = []string{".htrc", ".meta.json"}

// Scrub re-hashes every indexed trace against its address, quarantining
// (and de-indexing) any that fail. The quarantine dir and non-store files
// are never touched. Returns the pass's report, also retrievable via
// LastScrub.
func (s *Store) Scrub() errfs.ScrubReport {
	var rep errfs.ScrubReport
	s.mu.RLock()
	hashes := make([]string, 0, len(s.index))
	for h := range s.index {
		hashes = append(hashes, h)
	}
	s.mu.RUnlock()
	sort.Strings(hashes)
	for _, h := range hashes {
		rep.Scanned++
		switch ok, err := s.check(h); {
		case err != nil:
			if !os.IsNotExist(err) { // vanished = concurrent re-open raced
				rep.Errors++
			}
		case ok:
			rep.Verified++
		default:
			rep.Quarantined++
		}
	}
	return s.RecordScrub(rep)
}

// Put stores the trace read from r, returning its metadata and whether
// the store grew (false = the trace was already present; content
// addressing makes re-uploads idempotent). The bytes are staged to a temp
// file while the hash accumulates, then verified as a complete, non-empty
// trace (any version Stat reads) before the fsync'd rename publishes them
// — corrupt or truncated uploads never enter the index, and a crash at
// any point leaves either the old store or the complete new entry.
func (s *Store) Put(r io.Reader) (Meta, bool, error) {
	tmp, err := s.fsys.CreateTemp(s.dir, ".upload-*")
	if err != nil {
		return Meta{}, false, fmt.Errorf("corpus: stage upload: %w", err)
	}
	defer s.fsys.Remove(tmp.Name())
	h := sha256.New()
	size, err := io.Copy(io.MultiWriter(tmp, h), r)
	if err == nil {
		// Data must be on stable storage BEFORE the rename publishes the
		// name, or a power cut could leave a published-but-empty trace.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Meta{}, false, fmt.Errorf("corpus: stage upload: %w", err)
	}
	hash := hex.EncodeToString(h.Sum(nil))

	s.mu.RLock()
	m, dup := s.index[hash]
	s.mu.RUnlock()
	if dup {
		return m, false, nil
	}

	info, err := tracefile.Stat(tmp.Name())
	if err != nil {
		return Meta{}, false, fmt.Errorf("corpus: uploaded bytes are not a trace: %w", err)
	}
	if !info.Clean {
		return Meta{}, false, fmt.Errorf("corpus: uploaded trace is incomplete (aborted or chopped capture)")
	}
	if info.Ops == 0 {
		return Meta{}, false, fmt.Errorf("corpus: uploaded trace has no op records to replay")
	}
	m = Meta{
		Hash:          hash,
		SizeBytes:     size,
		FormatVersion: info.Version,
		Workload:      info.Meta.Name,
		NumPages:      info.Meta.NumPages,
		Seed:          info.Meta.Seed,
		Shift:         info.Meta.Shift,
		Ops:           info.Ops,
		Accesses:      info.Accesses,
	}
	metaJSON, err := json.Marshal(m)
	if err != nil {
		return Meta{}, false, fmt.Errorf("corpus: encode meta: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, dup := s.index[hash]; dup {
		// A concurrent upload of the same bytes won the rename; ours is
		// redundant by construction.
		return prev, false, nil
	}
	if err := s.fsys.Rename(tmp.Name(), s.tracePath(hash)); err != nil {
		return Meta{}, false, fmt.Errorf("corpus: publish trace: %w", err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return Meta{}, false, fmt.Errorf("corpus: publish trace: %w", err)
	}
	if err := errfs.WriteAtomic(s.fsys, s.metaPath(hash), metaJSON); err != nil {
		s.fsys.Remove(s.tracePath(hash))
		return Meta{}, false, fmt.Errorf("corpus: publish meta: %w", err)
	}
	s.index[hash] = m
	// The bytes just hashed to this address through the staging writer;
	// no need to re-read them on first Path.
	s.verified[hash] = true
	return m, true, nil
}

func (s *Store) tracePath(hash string) string {
	return filepath.Join(s.dir, hash+".htrc")
}

func (s *Store) metaPath(hash string) string {
	return filepath.Join(s.dir, hash+".meta.json")
}
