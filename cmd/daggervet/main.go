// Command daggervet runs Dagger's project-specific static analyzers over
// the repository (see internal/analysis for what each enforces and why):
//
//	simdeterminism  no wall clock / global rand / map-order dependence in sim code
//	locksafety      no blocking or returning with a mutex held
//	hotpathalloc    no avoidable allocation on the RPC data path
//	errchecklite    no silently dropped errors on Conn/transport/ring operations
//	bufownership    pooled buffers are released or handed off on every path
//	budgetflow      deadline-budget contexts propagate to downstream RPC calls
//
// Two project rules live in stock go vet instead: copied locks (copylocks)
// and discarded shed/congestion verdicts (unusedresult, with the dataplane
// and core verdict functions added to -unusedresult.funcs; see the README
// "Development" section for the exact command).
//
// Usage:
//
//	daggervet [-json] [-as importpath] [packages]
//
// Package patterns follow the go tool: a literal directory ("./internal/sim"),
// or a "..." wildcard ("./..."). With no arguments, ./... is assumed. Test
// files (in-package and external _test packages) are loaded and analyzed by
// the analyzers that opt into them — simdeterminism in particular polices
// unseeded randomness and wall-clock reads in simulation tests.
//
// Diagnostics print as file:line:col: message (analyzer), sorted by position;
// with -json they print instead as a JSON array of
// {file, line, col, analyzer, message} objects with file paths relative to
// the module root, the machine-readable form CI archives. The -as flag
// attributes a literal package directory to the given import path before the
// analyzers' path scoping runs (fixtures and out-of-tree experiments).
//
// The exit status is 0 when the tree is clean, 1 if any diagnostic was
// reported, 2 on usage or load errors. Individual findings can be suppressed
// with a "// dagger:ignore <analyzer> <reason>" comment on the offending
// line or the line above; unused suppressions are themselves diagnosed, and
// the reason is mandatory, so exceptions stay reviewable in code review.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dagger/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire form of one finding. File is relative to
// the module root with forward slashes, so output is stable across checkouts.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run is the testable entry point: it parses args, analyzes the requested
// packages, writes findings to stdout, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("daggervet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	jsonOut := flags.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	asPath := flags.String("as", "", "attribute the analyzed package to this import path (single literal directory only)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "daggervet:", err)
		return 2
	}
	// Test files are analyzed too: analyzers that opt in (simdeterminism)
	// police in-package and external test code the same as production code.
	loader.IncludeTests = true
	dirs, err := expand(loader.ModuleRoot(), patterns)
	if err != nil {
		fmt.Fprintln(stderr, "daggervet:", err)
		return 2
	}
	if *asPath != "" && len(dirs) != 1 {
		fmt.Fprintln(stderr, "daggervet: -as requires exactly one package directory")
		return 2
	}

	var diags []analysis.Diagnostic
	collect := func(pkg *analysis.Package) error {
		ds, err := analysis.Run(pkg, analysis.All)
		if err != nil {
			return err
		}
		diags = append(diags, ds...)
		return nil
	}
	for _, dir := range dirs {
		pkg, err := loader.Load(dir, *asPath)
		if err != nil {
			fmt.Fprintln(stderr, "daggervet:", err)
			return 2
		}
		if err := collect(pkg); err != nil {
			fmt.Fprintln(stderr, "daggervet:", err)
			return 2
		}
		xpkg, err := loader.LoadXTest(dir, xtestPath(*asPath))
		if err != nil {
			fmt.Fprintln(stderr, "daggervet:", err)
			return 2
		}
		if xpkg != nil {
			if err := collect(xpkg); err != nil {
				fmt.Fprintln(stderr, "daggervet:", err)
				return 2
			}
		}
	}

	// Sort for deterministic output regardless of package load order, so the
	// text form diffs cleanly and the JSON form can be golden-tested.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     relPath(loader.ModuleRoot(), d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "daggervet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// xtestPath derives the synthetic import path for a directory's external
// test package from the -as override, mirroring the loader's default.
func xtestPath(asPath string) string {
	if asPath == "" {
		return ""
	}
	return asPath + "/xtest"
}

// relPath renders filename relative to the module root with forward slashes;
// paths outside the root (GOROOT sources, which never carry diagnostics) are
// returned unchanged.
func relPath(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}

// expand resolves go-tool-style package patterns to package directories.
func expand(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, pat := range patterns {
		base, wild := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" || base == "." {
			base = root
		} else if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		if !wild {
			if hasGoFiles(base) {
				add(base)
			} else {
				return nil, fmt.Errorf("no Go files in %s", base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			// Skip ignored trees the same way the go tool does.
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test Go
// file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
