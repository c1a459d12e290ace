//go:build !race

package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dagger/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// unstable lists the lines of `-run all -quick` that read the wall clock.
// Each pattern matches one whole line, and its replacement keeps the fields
// that are deterministic and blanks the rest. Every other line must match
// the golden byte for byte.
var unstable = []struct {
	line *regexp.Regexp
	keep string
}{
	// Each experiment's footer times the runner itself.
	{regexp.MustCompile(`^(---- \S+ done in )\S+( ----)$`), "${1}…${2}"},
}

// TestQuickGolden runs every experiment the way `daggerbench -run all -quick
// -metrics` does and diffs the printed rows and the metrics report against
// testdata. Regenerate with `go test ./cmd/daggerbench -run TestQuickGolden
// -update`. It is excluded under -race, which slows the run about sixfold.
func TestQuickGolden(t *testing.T) {
	var out bytes.Buffer
	if err := runExperiments(&out, experiments.IDs(), true); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(out.String(), "\n")
	used := make([]bool, len(unstable))
	for i, l := range lines {
		for j, u := range unstable {
			body := strings.TrimSuffix(l, "\n")
			if u.line.MatchString(body) {
				lines[i] = u.line.ReplaceAllString(body, u.keep) + "\n"
				used[j] = true
				break
			}
		}
	}
	for j, ok := range used {
		if !ok {
			t.Errorf("unstable-line pattern %q matched nothing; delete it", unstable[j].line)
		}
	}
	compareGolden(t, "quick.golden", []byte(strings.Join(lines, "")))

	var report bytes.Buffer
	if err := experiments.Report().WriteJSON(&report); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "quick.metrics.golden", report.Bytes())
}

// compareGolden diffs got against testdata/name line by line, or rewrites
// the file under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(g), len(w)) && shown < 20; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s:%d\n got: %q\nwant: %q", path, i+1, gl, wl)
			shown++
		}
	}
	if shown == 0 {
		t.Errorf("%s: output differs from the golden", path)
	}
}
