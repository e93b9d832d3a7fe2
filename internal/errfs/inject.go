package errfs

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"
	"syscall"
)

// Op names one injectable filesystem operation, matching the FS method
// (lowercased) that performs it. "write" and "sync" fire inside File
// handles opened through the injector.
type Op string

// The injectable operations.
const (
	OpMkdirAll   Op = "mkdirall"
	OpCreateTemp Op = "createtemp"
	OpOpenFile   Op = "openfile"
	OpReadFile   Op = "readfile"
	OpReadDir    Op = "readdir"
	OpStat       Op = "stat"
	OpRename     Op = "rename"
	OpRemove     Op = "remove"
	OpTruncate   Op = "truncate"
	OpSyncDir    Op = "syncdir"
	OpWrite      Op = "write"
	OpSync       Op = "sync"
)

// Fault is one rule of an Injector's plan: the Nth operation matching
// (Op, Path substring) misbehaves.
type Fault struct {
	// Op selects the operation kind (required).
	Op Op
	// Path, when non-empty, restricts the rule to paths containing it.
	Path string
	// After skips that many matching operations before firing, so a test
	// can let a store warm up and then break the disk under it.
	After int
	// Err is returned when the rule fires (default syscall.EIO).
	Err error
	// Short, on a write fault, is how many bytes land before the error —
	// the torn-write case. Zero tears nothing: the write fails whole.
	Short int
	// Crash, when set, freezes the filesystem once the rule fires: every
	// later mutating operation (and the faulted one) fails with ErrCrashed.
	// What was durably on "disk" at that instant is exactly what a
	// restarted store gets to see — the kill-9 model.
	Crash bool
	// Persistent keeps the rule firing on every later match instead of
	// only once — an EIO storm rather than a single bad sector.
	Persistent bool

	fired bool
}

// ErrCrashed is what every mutation returns after a Crash fault fires.
var ErrCrashed = errors.New("errfs: filesystem crashed (fault plan)")

// Injector wraps an FS with a deterministic fault plan. Operations are
// counted per (Op, Path-rule) so schedules are reproducible; all methods
// are safe for concurrent use.
type Injector struct {
	under FS

	mu      sync.Mutex
	faults  []*Fault
	counts  map[Op]int
	crashed bool
}

// Inject wraps under with the given fault plan.
func Inject(under FS, faults ...Fault) *Injector {
	inj := &Injector{under: under, counts: map[Op]int{}}
	for i := range faults {
		f := faults[i]
		inj.faults = append(inj.faults, &f)
	}
	return inj
}

// Count reports how many operations of kind op have been attempted.
func (inj *Injector) Count(op Op) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.counts[op]
}

// check counts the operation and returns the injected error (and, for
// writes, the short-byte count) if a rule fires.
func (inj *Injector) check(op Op, path string) (error, int) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.counts[op]++
	if inj.crashed && mutates(op) {
		return ErrCrashed, 0
	}
	for _, f := range inj.faults {
		if f.Op != op || (f.fired && !f.Persistent) {
			continue
		}
		if f.Path != "" && !strings.Contains(path, f.Path) {
			continue
		}
		if f.After > 0 {
			f.After--
			continue
		}
		f.fired = true
		if f.Crash {
			inj.crashed = true
		}
		err := f.Err
		if err == nil {
			err = fmt.Errorf("errfs: injected %s on %s: %w", op, path, syscall.EIO)
		}
		return err, f.Short
	}
	return nil, 0
}

// mutates reports whether op changes the filesystem — reads keep working
// after a crash (the process reading back what survived), mutations fail.
func mutates(op Op) bool {
	switch op {
	case OpReadFile, OpReadDir, OpStat:
		return false
	}
	return true
}

func (inj *Injector) MkdirAll(path string, perm fs.FileMode) error {
	if err, _ := inj.check(OpMkdirAll, path); err != nil {
		return err
	}
	return inj.under.MkdirAll(path, perm)
}

func (inj *Injector) CreateTemp(dir, pattern string) (File, error) {
	if err, _ := inj.check(OpCreateTemp, dir); err != nil {
		return nil, err
	}
	f, err := inj.under.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{under: f, inj: inj}, nil
}

func (inj *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err, _ := inj.check(OpOpenFile, name); err != nil {
		return nil, err
	}
	f, err := inj.under.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{under: f, inj: inj}, nil
}

func (inj *Injector) ReadFile(name string) ([]byte, error) {
	if err, _ := inj.check(OpReadFile, name); err != nil {
		return nil, err
	}
	return inj.under.ReadFile(name)
}

func (inj *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	if err, _ := inj.check(OpReadDir, name); err != nil {
		return nil, err
	}
	return inj.under.ReadDir(name)
}

func (inj *Injector) Stat(name string) (fs.FileInfo, error) {
	if err, _ := inj.check(OpStat, name); err != nil {
		return nil, err
	}
	return inj.under.Stat(name)
}

func (inj *Injector) Rename(oldpath, newpath string) error {
	if err, _ := inj.check(OpRename, newpath); err != nil {
		return err
	}
	return inj.under.Rename(oldpath, newpath)
}

func (inj *Injector) Remove(name string) error {
	if err, _ := inj.check(OpRemove, name); err != nil {
		return err
	}
	return inj.under.Remove(name)
}

func (inj *Injector) Truncate(name string, size int64) error {
	if err, _ := inj.check(OpTruncate, name); err != nil {
		return err
	}
	return inj.under.Truncate(name, size)
}

func (inj *Injector) SyncDir(dir string) error {
	if err, _ := inj.check(OpSyncDir, dir); err != nil {
		return err
	}
	return inj.under.SyncDir(dir)
}

// injFile threads write/sync faults into a File handle. A short write
// lands its prefix through the real file first, so what a later reader
// (or a restarted store) sees is a genuinely torn record, not a clean
// absence.
type injFile struct {
	under File
	inj   *Injector
}

func (f *injFile) Write(p []byte) (int, error) {
	err, short := f.inj.check(OpWrite, f.under.Name())
	if err != nil {
		if short > 0 && short < len(p) {
			n, _ := f.under.Write(p[:short])
			return n, err
		}
		return 0, err
	}
	return f.under.Write(p)
}

func (f *injFile) Sync() error {
	if err, _ := f.inj.check(OpSync, f.under.Name()); err != nil {
		return err
	}
	return f.under.Sync()
}

func (f *injFile) Close() error { return f.under.Close() }
func (f *injFile) Name() string { return f.under.Name() }
