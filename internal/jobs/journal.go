package jobs

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/errfs"
)

// The journal is the daemon's crash ledger: an append-only, fsync'd file
// recording job submit, start, and terminal transitions, keyed by spec
// hash — every transition that changes what a replay rebuilds, and no
// other (Append's skip rule). A restarted Manager replays it
// (NewManager), re-listing terminal jobs and automatically resubmitting
// whatever was queued or running when the process died — and because
// completed cells already live in the content-addressed result cache, the
// resumed run re-executes only the cells the crash actually lost.
//
// Record framing is one line per record:
//
//	<crc32c hex, 8 chars> <compact JSON>\n
//
// The checksum covers the JSON bytes. Recovery reads records until the
// first damaged line — bad checksum, unparsable JSON, or a torn tail with
// no newline (the kill-9-mid-append case) — truncates the file there, and
// ignores the rest: an append is atomic-or-absent, never half-applied.
// docs/DURABILITY.md specifies the format.

// Journal record types, in lifecycle order.
const (
	recSubmit   = "submit"
	recStart    = "start"
	recDone     = "done"
	recFailed   = "failed"
	recCanceled = "canceled"
)

// Record is one journal entry. Spec rides on submit records (and on the
// compacted terminal records Compact writes, so a re-listed job keeps its
// spec across any number of restarts); Error on failed/canceled ones.
type Record struct {
	Type  string          `json:"t"`
	Hash  string          `json:"hash"`
	Spec  json.RawMessage `json:"spec,omitempty"`
	Error string          `json:"error,omitempty"`
}

// crcTable is Castagnoli — hardware-accelerated and the standard pick for
// storage checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is the append side: one open file handle, every written record
// fsync'd before Append returns so an acknowledged record survives power
// loss. Safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	fsys errfs.FS
	path string
	f    errfs.File
	err  error // sticky: first append failure, reported by Err
	// fold is replayRecords' fold of the records durably in the file, by
	// hash, without spec bytes: what Append consults to skip a record.
	fold map[string]foldState
}

// OpenJournal opens (creating if absent) the journal at path, recovers
// its intact prefix, truncates any damaged tail, and returns the journal
// ready for appending plus the recovered records in file order. The
// returned records are what NewManager replays.
func OpenJournal(path string, fsys errfs.FS) (*Journal, []Record, error) {
	if fsys == nil {
		fsys = errfs.OS{}
	}
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: journal dir: %w", err)
	}
	data, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("jobs: journal read: %w", err)
	}
	records, intact := decodeRecords(data)
	if intact < int64(len(data)) {
		// A torn or corrupt tail: drop it so the next append starts on a
		// record boundary. The truncation is itself crash-safe — redoing it
		// after another crash converges on the same intact prefix.
		if err := fsys.Truncate(path, intact); err != nil {
			return nil, nil, fmt.Errorf("jobs: journal truncate damaged tail: %w", err)
		}
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: journal open: %w", err)
	}
	return &Journal{fsys: fsys, path: path, f: f, fold: liveFold(records)}, records, nil
}

// decodeRecords parses the journal bytes, returning every intact record
// and the byte offset where damage (or the end) begins.
func decodeRecords(data []byte) (records []Record, intact int64) {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return records, intact // torn tail: no newline landed
		}
		line := data[:nl]
		rec, ok := decodeLine(line)
		if !ok {
			return records, intact
		}
		records = append(records, rec)
		intact += int64(nl) + 1
		data = data[nl+1:]
	}
	return records, intact
}

// decodeLine checks one framed line's checksum and parses its record.
func decodeLine(line []byte) (Record, bool) {
	var rec Record
	if len(line) < 10 || line[8] != ' ' {
		return rec, false
	}
	sum, err := hex.DecodeString(string(line[:8]))
	if err != nil {
		return rec, false
	}
	payload := line[9:]
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if crc32.Checksum(payload, crcTable) != want {
		return rec, false
	}
	if json.Unmarshal(payload, &rec) != nil || rec.Type == "" || !errfs.ValidHash(rec.Hash) {
		return rec, false
	}
	return rec, true
}

// encodeLine frames one record.
func encodeLine(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, 10+len(payload))
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, crcTable))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// Append writes one record and fsyncs it to disk before returning —
// unless folding it would leave its hash's replayed state unchanged, in
// which case replay could not tell it apart from absent and nothing is
// written. The fold takes a record only once its fsync succeeds, so a
// failed record is retried, never skipped. On failure the error is
// returned AND latched (Err), so the health endpoint can report a journal
// that has stopped persisting while the daemon keeps serving from memory
// — durability degrades loudly, availability stays.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.latchLocked(fmt.Errorf("jobs: journal is closed"))
	}
	old, seen := j.fold[rec.Hash]
	if !seen {
		old = foldState{state: Queued}
	}
	next := old.step(rec)
	if seen && next == old {
		return nil
	}
	line, err := encodeLine(rec)
	if err != nil {
		return j.latchLocked(err)
	}
	if _, err := j.f.Write(line); err != nil {
		// A partial line may have landed; the checksum frame makes it
		// harmless — recovery truncates it — but nothing may be appended
		// after it or the damage would swallow a good record too.
		j.f.Close()
		j.f = nil
		return j.latchLocked(fmt.Errorf("jobs: journal append: %w", err))
	}
	if err := j.f.Sync(); err != nil {
		return j.latchLocked(fmt.Errorf("jobs: journal fsync: %w", err))
	}
	j.fold[rec.Hash] = next
	return nil
}

func (j *Journal) latchLocked(err error) error {
	if j.err == nil {
		j.err = err
	}
	return err
}

// Err returns the first append failure, or nil while the journal is
// healthy. Exposed through /healthz's integrity section.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Path returns the journal file's location.
func (j *Journal) Path() string { return j.path }

// Close releases the file handle. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Compact atomically rewrites the journal to the given records — the
// replay-time bound on journal growth: one record per remembered terminal
// job plus one per resubmitted live job, instead of the full history. The
// open handle moves to the new file; the rewrite is atomic-or-old, never
// a torn middle state.
func (j *Journal) Compact(records []Record) error {
	var buf bytes.Buffer
	for _, rec := range records {
		line, err := encodeLine(rec)
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := errfs.WriteAtomic(j.fsys, j.path, buf.Bytes()); err != nil {
		return j.latchLocked(fmt.Errorf("jobs: journal compact: %w", err))
	}
	j.fold = liveFold(records)
	if j.f != nil {
		j.f.Close()
	}
	f, err := j.fsys.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		return j.latchLocked(fmt.Errorf("jobs: journal reopen after compact: %w", err))
	}
	j.f = f
	return nil
}

// foldState is one hash's replayed fate minus its spec bytes, which the
// hash already determines: all a later record's effect depends on.
type foldState struct {
	state   State // Queued/Running = lost live job (resubmit); terminal = re-list
	errMsg  string
	hasSpec bool
}

// step folds one record into a hash's state — the single transition rule
// replayRecords and Journal.Append share. A submit after a terminal record
// opens a new generation of the same hash; within a generation the
// strongest state wins. The first rule needs each job's submit record
// ahead of its worker's records, which Manager.Submit guarantees by
// journaling before it queues: a submit landing after its own job's done
// would open a generation nobody submitted, and a restart would run the
// finished job again.
func (st foldState) step(rec Record) foldState {
	st.hasSpec = st.hasSpec || len(rec.Spec) > 0
	switch rec.Type {
	case recSubmit:
		if st.state.Terminal() {
			// The same spec was submitted again after completing: a new
			// live generation replaces the terminal listing.
			st.state, st.errMsg = Queued, ""
		}
	case recStart:
		if !st.state.Terminal() {
			st.state = Running
		}
	case recDone:
		st.state, st.errMsg = Done, ""
	case recFailed:
		st.state, st.errMsg = Failed, rec.Error
	case recCanceled:
		st.state, st.errMsg = Canceled, rec.Error
	}
	return st
}

// replayedJob is one hash's reconstructed fate after a journal replay.
type replayedJob struct {
	hash string
	spec []byte
	foldState
}

// replayRecords folds a recovered record stream into per-hash outcomes in
// first-seen order; each hash starts Queued.
func replayRecords(records []Record) []replayedJob {
	index := map[string]int{}
	var out []replayedJob
	for _, rec := range records {
		i, seen := index[rec.Hash]
		if !seen {
			index[rec.Hash] = len(out)
			out = append(out, replayedJob{hash: rec.Hash, foldState: foldState{state: Queued}})
			i = len(out) - 1
		}
		job := &out[i]
		if len(rec.Spec) > 0 {
			job.spec = rec.Spec
		}
		job.foldState = job.foldState.step(rec)
	}
	return out
}

// liveFold is replayRecords' outcome of records, keyed by hash.
func liveFold(records []Record) map[string]foldState {
	fold := map[string]foldState{}
	for _, rj := range replayRecords(records) {
		fold[rj.hash] = rj.foldState
	}
	return fold
}
