package errfs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func TestWriteAtomicReplacesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.json")
	if err := WriteAtomic(OS{}, path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(OS{}, path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "two" {
		t.Fatalf("read back %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir holds %d entries after two atomic writes, want 1", len(entries))
	}
}

// TestWriteAtomicFaultsNeverTearDestination: whichever stage of the
// atomic write fails — the write itself, the file sync, or the rename —
// the destination keeps its previous contents and no temp file leaks.
func TestWriteAtomicFaultsNeverTearDestination(t *testing.T) {
	for _, fault := range []Fault{
		{Op: OpWrite},
		{Op: OpWrite, Short: 2}, // torn temp: prefix lands, then EIO
		{Op: OpSync},
		{Op: OpRename},
		{Op: OpCreateTemp},
	} {
		t.Run(string(fault.Op), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "v.json")
			if err := WriteAtomic(OS{}, path, []byte("intact")); err != nil {
				t.Fatal(err)
			}
			inj := Inject(OS{}, fault)
			if err := WriteAtomic(inj, path, []byte("replacement")); err == nil {
				t.Fatal("faulted WriteAtomic reported success")
			}
			got, err := os.ReadFile(path)
			if err != nil || string(got) != "intact" {
				t.Fatalf("destination after fault = %q, %v; want previous contents", got, err)
			}
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), ".atomic-") {
					t.Errorf("temp file %s leaked", e.Name())
				}
			}
		})
	}
}

func TestInjectorSchedule(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	inj := Inject(OS{}, Fault{Op: OpRemove, After: 1, Err: boom})
	a := filepath.Join(dir, "a")
	for _, p := range []string{a, filepath.Join(dir, "b"), filepath.Join(dir, "c")} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := inj.Remove(a); err != nil {
		t.Fatalf("first remove (After skips it): %v", err)
	}
	if err := inj.Remove(filepath.Join(dir, "b")); !errors.Is(err, boom) {
		t.Fatalf("second remove = %v, want the injected error", err)
	}
	// Non-persistent: the rule fired once; later ops succeed.
	if err := inj.Remove(filepath.Join(dir, "c")); err != nil {
		t.Fatalf("third remove after a one-shot fault: %v", err)
	}
	if inj.Count(OpRemove) != 3 {
		t.Errorf("Count(remove) = %d, want 3", inj.Count(OpRemove))
	}
}

func TestInjectorPersistentStorm(t *testing.T) {
	inj := Inject(OS{}, Fault{Op: OpSyncDir, Persistent: true})
	for i := 0; i < 3; i++ {
		if err := inj.SyncDir(t.TempDir()); err == nil {
			t.Fatalf("syncdir %d survived a persistent fault", i)
		} else if !errors.Is(err, syscall.EIO) {
			t.Fatalf("default injected error = %v, want EIO", err)
		}
	}
}

// TestInjectorCrashFreezesMutations: after a Crash fault fires, reads
// still serve (the restarted process inspecting the disk) while every
// mutation fails with ErrCrashed.
func TestInjectorCrashFreezesMutations(t *testing.T) {
	dir := t.TempDir()
	keep := filepath.Join(dir, "keep")
	if err := os.WriteFile(keep, []byte("survives"), 0o644); err != nil {
		t.Fatal(err)
	}
	inj := Inject(OS{}, Fault{Op: OpRename, Crash: true})
	if err := inj.Rename(keep, filepath.Join(dir, "moved")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("crash fault returned %v", err)
	}
	if !inj.crashed {
		t.Fatal("crashed is false after the fault fired")
	}
	if err := inj.Remove(keep); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash mutation = %v, want ErrCrashed", err)
	}
	if _, err := inj.CreateTemp(dir, "x-*"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create = %v, want ErrCrashed", err)
	}
	if got, err := inj.ReadFile(keep); err != nil || string(got) != "survives" {
		t.Fatalf("post-crash read = %q, %v; reads must keep working", got, err)
	}
}

// TestInjectorShortWriteTearsFile: a Short write fault lands the prefix
// in the real file — the torn-record shape journal recovery must handle.
func TestInjectorShortWriteTearsFile(t *testing.T) {
	dir := t.TempDir()
	inj := Inject(OS{}, Fault{Op: OpWrite, Short: 4})
	f, err := inj.OpenFile(filepath.Join(dir, "torn"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("full record"))
	f.Close()
	if werr == nil {
		t.Fatal("short write reported success")
	}
	if n != 4 {
		t.Fatalf("short write landed %d bytes, want 4", n)
	}
	got, err := os.ReadFile(filepath.Join(dir, "torn"))
	if err != nil || string(got) != "full" {
		t.Fatalf("torn file holds %q, %v", got, err)
	}
}

func TestValidHashAndCutHash(t *testing.T) {
	h := SumHex([]byte("x"))
	if !ValidHash(h) {
		t.Fatalf("ValidHash rejects SumHex's own output %q", h)
	}
	for _, bad := range []string{"", h[:63], h + "0", strings.ToUpper(h), "../" + h[3:], h[:63] + "g"} {
		if ValidHash(bad) {
			t.Errorf("ValidHash(%q) = true", bad)
		}
	}
	if got, ok := CutHash(h+".spec.json", ".spec.json"); !ok || got != h {
		t.Errorf("CutHash(<hash>.spec.json) = %q, %v", got, ok)
	}
	for _, name := range []string{h + ".json", "journal.wal", ".atomic-123.json", h[1:] + ".spec.json"} {
		if got, ok := CutHash(name, ".spec.json"); ok {
			t.Errorf("CutHash(%q) = %q, want no match", name, got)
		}
	}
}

// TestQuarantineMovesOnlyTheEntry: the files of the entry that exist move
// under QuarantineDir and the directory is synced; a missing suffix and
// other entries are left alone; a failing mkdir moves nothing.
func TestQuarantineMovesOnlyTheEntry(t *testing.T) {
	dir := t.TempDir()
	h, other := SumHex([]byte("a")), SumHex([]byte("b"))
	for _, name := range []string{h + ".json", h + ".spec.json", other + ".json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inj := Inject(OS{}, Fault{Op: OpMkdirAll})
	Quarantine(inj, dir, h, ".json", ".sum", ".spec.json")
	if _, err := os.Stat(filepath.Join(dir, h+".json")); err != nil || inj.Count(OpRename) != 0 {
		t.Fatalf("a failed mkdir still moved files (stat %v, %d renames)", err, inj.Count(OpRename))
	}
	Quarantine(inj, dir, h, ".json", ".sum", ".spec.json")
	if inj.Count(OpRename) != 2 || inj.Count(OpSyncDir) != 1 {
		t.Errorf("%d renames, %d dir syncs; want 2 and 1", inj.Count(OpRename), inj.Count(OpSyncDir))
	}
	for _, name := range []string{h + ".json", h + ".spec.json"} {
		if got, err := os.ReadFile(filepath.Join(dir, QuarantineDir, name)); err != nil || string(got) != name {
			t.Errorf("quarantined %s = %q, %v", name, got, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, other+".json")); err != nil {
		t.Errorf("another entry was moved: %v", err)
	}
}

func TestScrubLogKeepsTheLatestStampedReport(t *testing.T) {
	var l ScrubLog
	if _, ok := l.LastScrub(); ok {
		t.Fatal("a fresh ScrubLog reports a pass")
	}
	l.RecordScrub(ScrubReport{Scanned: 1})
	rep := l.RecordScrub(ScrubReport{Scanned: 2, Verified: 2})
	if rep.UnixNs == 0 {
		t.Error("RecordScrub did not stamp the report")
	}
	if got, ok := l.LastScrub(); !ok || got != rep {
		t.Errorf("LastScrub = %+v, %v; want %+v", got, ok, rep)
	}
}
