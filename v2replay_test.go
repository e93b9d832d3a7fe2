package hybridtier_test

// The v2 container's contract with the simulator: replaying a capture
// through the columnar format drives the simulation to byte-identical
// results, compared with the v1 replay of the same capture.

import (
	"path/filepath"
	"testing"

	hybridtier "repro"
	"repro/internal/tracefile"
)

// captureV1V2 records one shifting run (time marks + shift marks) and
// returns the v1 capture plus its v2 conversion, with the recorded JSON.
func captureV1V2(t *testing.T, dir string) (v1, v2 string, live []byte) {
	t.Helper()
	v1 = filepath.Join(dir, "cap.htrc")
	live = sweepJSON(t, traceSweep(hybridtier.WithWorkloadName("shifting-zipf"),
		hybridtier.WithRecordTo(v1)))
	v2 = filepath.Join(dir, "cap.v2.htrc")
	if err := tracefile.Convert(v1, v2, tracefile.Version2); err != nil {
		t.Fatalf("Convert: %v", err)
	}
	return v1, v2, live
}

// TestV2ReplayByteIdentical: a full v2 replay of a capture produces the
// same sweep JSON as the v1 replay — and as the live run it captured.
func TestV2ReplayByteIdentical(t *testing.T) {
	v1, v2, live := captureV1V2(t, t.TempDir())
	replayV1 := sweepJSON(t, traceSweep(hybridtier.WithTraceFile(v1)))
	if string(replayV1) != string(live) {
		t.Fatal("v1 replay differs from the live run")
	}
	replayV2 := sweepJSON(t, traceSweep(hybridtier.WithTraceFile(v2)))
	if string(replayV2) != string(live) {
		t.Fatal("v2 replay differs from the live run")
	}
}
