package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONGolden pins the -json output format, the diagnostic ordering
// (sorted by file, line, column, analyzer, message), and the exit code for a
// dirty package. The fixture is attributed into errchecklite's scope via
// -as, exactly how out-of-tree code would be vetted.
func TestJSONGolden(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{"-json", "-as", "dagger/internal/transport/fixture", "./internal/analysis/testdata/errchecklite"}, &out, &errs)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errs.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "errchecklite.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Errorf("-json output differs from testdata/errchecklite.golden.json:\n got:\n%s\nwant:\n%s", out.Bytes(), golden)
	}
}

// TestJSONCleanPackage pins the clean-tree contract CI relies on: exit 0 and
// an empty JSON array (never null), so downstream tooling can parse the
// artifact unconditionally.
func TestJSONCleanPackage(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{"-json", "./internal/dataplane"}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stdout: %s, stderr: %s)", code, out.String(), errs.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

// TestTextOutput checks the human-readable form still reports the same
// findings, one per line, with the analyzer name trailing.
func TestTextOutput(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{"-as", "dagger/internal/transport/fixture", "./internal/analysis/testdata/errchecklite"}, &out, &errs)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d diagnostics, want 3:\n%s", len(lines), out.String())
	}
	for _, line := range lines {
		if !strings.HasSuffix(line, "(errchecklite)") {
			t.Errorf("diagnostic missing analyzer suffix: %q", line)
		}
	}
}

// TestBadPatternExitsTwo pins the usage/load-error exit code.
func TestBadPatternExitsTwo(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &out, &errs); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if errs.Len() == 0 {
		t.Error("expected an error message on stderr")
	}
}

// TestAsRequiresSingleDir pins that -as cannot be combined with wildcards:
// attributing many packages to one import path would defeat path scoping.
func TestAsRequiresSingleDir(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-as", "dagger/internal/core/fixture", "./internal/..."}, &out, &errs); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
