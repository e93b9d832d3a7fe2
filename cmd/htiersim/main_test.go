package main

// In-process CLI tests: run() takes args and writers and returns the exit
// code, so flag parsing, grammar validation, listing, and the record →
// replay determinism contract are all testable without building a binary.

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes the CLI and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListIncludesCompositionSyntax(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, want := range []string{"workloads:", "policies:", "composition", "mix:", "phases:", "repeat:", "offset:", "scale:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output lacks %q", want)
		}
	}
}

func TestBadGrammarExitsNonZeroWithDiagnosis(t *testing.T) {
	cases := []struct {
		args []string
		want string // stderr must carry this substring
	}{
		{[]string{"-workload", "mix:0.7*cdn"}, "at least two"},
		{[]string{"-workload", "mix:0.7*cdn,0.3*nope"}, `"nope"`},
		{[]string{"-workload", "phases:cdn,silo"}, "op count"},
		{[]string{"-workload", "mix:0.5*(cdn,0.5*silo"}, "unbalanced"},
		{[]string{"-workload", "no-such-workload"}, "known:"},
		{[]string{"-workload", "cdn", "-replay", "x.htrc"}, "conflict"},
		{[]string{"-scale", "bogus"}, "unknown scale"},
		{[]string{"-experiment", "fig99"}, `unknown experiment "fig99"`},
	}
	for _, c := range cases {
		code, _, stderr := runCLI(t, c.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%v: stderr %q lacks %q", c.args, stderr, c.want)
		}
	}
}

func TestExperimentPrintsPaperTables(t *testing.T) {
	code, out, stderr := runCLI(t, "-experiment", "tab4, fig3a", "-scale", "tiny")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"scale tiny, 2 experiment(s)", "Metadata size", "EMA score", "(tab4 in ", "(fig3a in ", "total: "} {
		if !strings.Contains(out, want) {
			t.Errorf("-experiment output lacks %q:\n%s", want, out)
		}
	}
}

func TestComposedWorkloadRuns(t *testing.T) {
	code, out, stderr := runCLI(t,
		"-workload", "mix:0.7*zipf,0.3*zipf",
		"-scale", "tiny", "-ops", "2000")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "mix(") {
		t.Errorf("output does not carry the composed workload name:\n%s", out)
	}
}

// TestComposedRecordReplayJSONByteIdentical is the CLI form of the
// acceptance criterion: record a composed run, then replay it and require
// byte-identical sweep JSON.
func TestComposedRecordReplayJSONByteIdentical(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "m.htrc")
	code, live, stderr := runCLI(t,
		"-workload", "mix:0.7*zipf,0.3*zipf",
		"-scale", "tiny", "-ops", "3000",
		"-record", trace, "-json")
	if code != 0 {
		t.Fatalf("record run exited %d, stderr: %s", code, stderr)
	}
	code, replay, stderr := runCLI(t, "-replay", trace, "-json")
	if code != 0 {
		t.Fatalf("replay exited %d, stderr: %s", code, stderr)
	}
	if replay != live {
		t.Error("replay JSON differs from the live run's")
	}

	code, info, _ := runCLI(t, "-trace-info", trace)
	if code != 0 {
		t.Fatalf("-trace-info exited %d", code)
	}
	for _, want := range []string{"mix(", "ops            3000", "clean end      true"} {
		if !strings.Contains(info, want) {
			t.Errorf("-trace-info output lacks %q:\n%s", want, info)
		}
	}
}

func TestTraceInfoMissingFileExits2(t *testing.T) {
	code, _, stderr := runCLI(t, "-trace-info", filepath.Join(t.TempDir(), "absent.htrc"))
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stderr == "" {
		t.Error("no diagnostic on stderr")
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d (stderr: %s), want 0", code, stderr)
	}
	if !strings.Contains(stderr, "-workload") {
		t.Error("usage text missing from -h output")
	}
}
