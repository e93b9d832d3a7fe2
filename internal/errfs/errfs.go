// Package errfs is the filesystem seam under every durable store in the
// daemon: the jobs result cache, the job journal, and the trace corpus
// all perform their disk I/O through the FS interface instead of calling
// the os package directly. Production uses OS, a thin passthrough; tests
// use Injector (inject.go), which wraps any FS with a deterministic
// fault plan — EIO on the Nth write, short writes, sync failures, or a
// "crash" that freezes the tree mid-operation — so the stores' claimed
// crash-safety (docs/DURABILITY.md) is proven against injected disk
// faults rather than asserted.
//
// The package also owns the one correct spelling of a durable atomic
// write, WriteAtomic: stage to a temp file, write, fsync the FILE, close,
// rename over the destination, fsync the DIRECTORY. Skipping the file
// sync risks renaming an empty or torn file into place after a power cut
// (the data may still be in the page cache when the metadata lands);
// skipping the directory sync risks the rename itself vanishing. Every
// store writes through this helper so the discipline cannot drift
// per-callsite.
//
// The read half lives here too, shared by the two content-addressed
// stores (the result cache and the trace corpus): ValidHash, the one
// address check and path-traversal guard; SumHex, the one content sum;
// CutHash, the one "<hash><suffix>" name parser; Quarantine, the one
// move of a corrupt entry under QuarantineDir; and ScrubReport with
// ScrubLog, the one shape of an integrity pass and the one record of
// the latest.
package errfs

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// File is the subset of *os.File the stores need: sequential writes,
// durability, and identity. Reads go through FS.ReadFile instead — the
// stores never seek inside a file they are mutating.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	Close() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface the durable stores consume. Methods mirror
// the os package; an implementation may fail any of them to model a
// hostile disk.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	CreateTemp(dir, pattern string) (File, error)
	// OpenFile opens for writing (the journal's append path).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory so a completed rename inside it is
	// durable, not merely staged in the page cache.
	SyncDir(dir string) error
}

// OS is the production FS: a passthrough to the os package.
type OS struct{}

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                   { return os.Remove(name) }
func (OS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// A directory fsync can fail on exotic filesystems; the close error is
	// irrelevant next to the sync's.
	err = d.Sync()
	d.Close()
	return err
}

// WriteAtomic durably replaces path with data: temp file in the same
// directory, write, fsync, close, rename, directory fsync. On any error
// the temp file is removed and path is untouched — a reader never
// observes a torn or half-written file, before or after a crash.
func WriteAtomic(fsys FS, path string, data []byte) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), ".atomic-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// ValidHash reports whether s is a well-formed content hash: exactly 64
// lowercase hex digits. Keys become file names in the stores, so this is
// also the path-traversal guard. It runs on every cache probe and on the
// daemon's serving hot path, hence the hand-rolled byte scan instead of a
// regexp (which costs an allocation and an order of magnitude in time
// per call).
func ValidHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SumHex is the stores' one spelling of a content sum: lowercase hex
// SHA-256.
func SumHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// CutHash splits a "<hash><suffix>" store file name, rejecting anything
// whose stem is not a well-formed content hash (temp files, stray drops).
func CutHash(name, suffix string) (string, bool) {
	hash, ok := strings.CutSuffix(name, suffix)
	if !ok || !ValidHash(hash) {
		return "", false
	}
	return hash, true
}

// QuarantineDir is the sidecar directory (under a store root) where
// corrupt entries are moved instead of being served or deleted. Disk GC
// and every scrub skip it.
const QuarantineDir = "quarantine"

// Quarantine moves each existing file dir/<hash><suffix> into dir's
// QuarantineDir, then fsyncs dir: the entry leaves the serving path but
// is preserved for diagnosis, never silently deleted. Best-effort: a
// failing move must not turn detection into an error, since the caller
// already treats the entry as corrupt.
func Quarantine(fsys FS, dir, hash string, suffixes ...string) {
	qdir := filepath.Join(dir, QuarantineDir)
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	for _, suffix := range suffixes {
		src := filepath.Join(dir, hash+suffix)
		if _, err := fsys.Stat(src); err != nil {
			continue
		}
		_ = fsys.Rename(src, filepath.Join(qdir, hash+suffix))
	}
	_ = fsys.SyncDir(dir)
}

// ScrubReport summarizes one integrity pass over a store, JSON-shaped for
// the /healthz integrity section.
type ScrubReport struct {
	// Scanned counts entries examined; Verified those whose bytes matched
	// their address or sidecar.
	Scanned  int `json:"scanned"`
	Verified int `json:"verified"`
	// Adopted counts legacy result entries with no sum that were
	// converted with the sum of their current bytes (the trace corpus
	// has none, so it never sets it).
	Adopted int `json:"adopted,omitempty"`
	// Quarantined counts corrupt entries moved aside this pass.
	Quarantined int `json:"quarantined,omitempty"`
	// Errors counts I/O failures during the pass (distinct from corruption).
	Errors int `json:"errors,omitempty"`
	// UnixNs stamps when the pass finished.
	UnixNs int64 `json:"unix_ns"`
}

// ScrubLog keeps a store's most recent ScrubReport. The zero value is
// ready; the stores embed it, so LastScrub is a store method. Safe for
// concurrent use.
type ScrubLog struct {
	mu   sync.Mutex
	last *ScrubReport
}

// RecordScrub stamps rep with the current time, keeps it as the latest
// pass, and returns it.
func (l *ScrubLog) RecordScrub(rep ScrubReport) ScrubReport {
	rep.UnixNs = time.Now().UnixNano()
	l.mu.Lock()
	l.last = &rep
	l.mu.Unlock()
	return rep
}

// LastScrub returns the most recent Scrub report, if any pass has run.
func (l *ScrubLog) LastScrub() (ScrubReport, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last == nil {
		return ScrubReport{}, false
	}
	return *l.last, true
}
