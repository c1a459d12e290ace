// Package analysis is a self-contained static-analysis framework plus the
// Dagger-specific analyzers behind cmd/daggervet. It deliberately mirrors
// the golang.org/x/tools/go/analysis API shape (Analyzer, Pass, Diagnostic,
// want-comment fixtures) but is built only on the standard library's
// go/ast, go/build and go/types packages, so the lint suite works in
// hermetic build environments with no module downloads.
//
// The analyzers encode the invariants this repo's value rests on:
//
//   - simdeterminism: the discrete-event engine (internal/sim and the model
//     packages above it) must stay bit-for-bit reproducible, so wall-clock
//     time and the global math/rand source are forbidden there.
//   - locksafety: the functional RPC stack (internal/core,
//     internal/transport, internal/fabric) must stay race-free: no blocking
//     while holding a mutex, no return with a mutex held.
//   - hotpathalloc: the data path (internal/ringbuf, internal/wire,
//     internal/transport, the client send/receive path) must stay
//     allocation-lean.
//   - errchecklite: errors from Conn/transport/ring operations must not be
//     silently dropped.
//   - bufownership: pooled buffers are released or handed off on every
//     path (flow-sensitive, over the internal/analysis/flow CFG).
//   - budgetflow: a deadline-budget context is threaded downstream, not
//     replaced by a fresh root context.
//
// All lists them. Rules stock go vet already implements are not repeated
// here: copied locks are vet's copylocks, and a discarded shed or
// congestion verdict is vet's unusedresult once the verdict functions are
// named in -unusedresult.funcs.
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path the package was loaded as. Fixture packages
	// may be loaded under a synthetic path to exercise path-scoped
	// analyzers.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Directives is the loader's accumulated dagger: annotation registry,
	// covering this package and every module-local package loaded so far
	// (including dependencies), so callers of an annotated function see its
	// contract across package boundaries.
	Directives map[*types.Func]Directive
}

// A Directive is a dagger: ownership annotation in a function declaration's
// doc comment. Exactly one of TransfersOwnership, Borrows or YieldsOwnership
// is set.
type Directive struct {
	// TransfersOwnership: "// dagger:transfers-ownership [param ...]" — the
	// function takes ownership of the named []byte parameters (all []byte
	// parameters when none are named) on every path, success or failure.
	// Callers must not use or release the buffer afterwards; the function
	// body must release or hand off the buffer on every path.
	TransfersOwnership bool
	// Borrows: "// dagger:borrows" — the function only reads its buffer
	// arguments and retains no reference; callers keep ownership.
	Borrows bool
	// YieldsOwnership: "// dagger:yields-ownership [Field]" — the function's
	// first result carries a pooled buffer the caller now owns; when Field is
	// given, the buffer is that field of the (struct) result rather than the
	// result itself.
	YieldsOwnership bool
	// Params names the parameters a transfers-ownership directive covers
	// (empty means every []byte parameter), or holds the single field name of
	// a yields-ownership directive.
	Params []string
}

// Loader loads packages from source and type-checks them without any
// external tooling. Direct targets are fully checked; their dependencies
// (including the standard library, which is checked from GOROOT source) are
// checked with IgnoreFuncBodies for speed and cached for the lifetime of
// the loader.
type Loader struct {
	ctx        build.Context
	moduleRoot string
	modulePath string
	fset       *token.FileSet

	// IncludeTests merges each target package's in-package _test.go files
	// into the loaded package, so analyzers that opt in (Analyzer.Tests) can
	// police test code too. External test packages (package foo_test) are
	// loaded separately via LoadXTest. Dependency packages are always loaded
	// without their tests.
	IncludeTests bool

	mu         sync.Mutex
	deps       map[string]*types.Package
	directives map[*types.Func]Directive
}

// NewLoader creates a loader rooted at the Go module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	// Force the pure-Go build so GOROOT packages (net, os/user) resolve to
	// their cgo-free file sets, which go/types can check from source.
	ctx.CgoEnabled = false
	return &Loader{
		ctx:        ctx,
		moduleRoot: root,
		modulePath: modPath,
		fset:       token.NewFileSet(),
		deps:       make(map[string]*types.Package),
		directives: make(map[*types.Func]Directive),
	}, nil
}

// ModuleRoot returns the filesystem root of the loaded module.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// findModule walks up from dir looking for go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
	}
}

// Load fully type-checks the package in dir, recording complete type
// information for analysis. asPath overrides the import path the package is
// attributed to (used by fixtures); if empty the path is derived from the
// directory's position within the module.
func (l *Loader) Load(dir string, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if asPath == "" {
		rel, err := filepath.Rel(l.moduleRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.moduleRoot)
		}
		asPath = l.modulePath
		if rel != "." {
			asPath = l.modulePath + "/" + filepath.ToSlash(rel)
		}
	}
	files, err := l.parseDir(abs, l.IncludeTests)
	if err != nil {
		return nil, err
	}
	return l.check(asPath, abs, files)
}

// LoadXTest loads the external test package (package foo_test) of dir, if
// any, under the synthetic import path asPath + "/xtest" — beneath the base
// path, so path-scoped analyzers treat external tests as part of the tree
// they test. Returns (nil, nil) when dir has no external test files.
func (l *Loader) LoadXTest(dir string, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if asPath == "" {
		rel, err := filepath.Rel(l.moduleRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.moduleRoot)
		}
		asPath = l.modulePath
		if rel != "." {
			asPath = l.modulePath + "/" + filepath.ToSlash(rel)
		}
	}
	bp, err := l.importDir(abs)
	if err != nil {
		return nil, err
	}
	if len(bp.XTestGoFiles) == 0 {
		return nil, nil
	}
	files, err := l.parseFiles(abs, bp.XTestGoFiles)
	if err != nil {
		return nil, err
	}
	return l.check(asPath+"/xtest", abs, files)
}

// check type-checks files as package asPath with full type information.
func (l *Loader) check(asPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:    (*depImporter)(l),
		FakeImportC: true,
	}
	tpkg, err := conf.Check(asPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", asPath, err)
	}
	l.collectDirectives(files, info.Defs)
	return &Package{
		Path:       asPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Directives: l.directives,
	}, nil
}

// collectDirectives records the dagger: annotations on the function
// declarations in files into the loader-wide registry.
func (l *Loader) collectDirectives(files []*ast.File, defs map[*ast.Ident]types.Object) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			var d Directive
			found := false
			for _, c := range fd.Doc.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if rest, ok := strings.CutPrefix(text, "dagger:transfers-ownership"); ok {
					d.TransfersOwnership = true
					d.Params = strings.Fields(rest)
					found = true
				} else if text == "dagger:borrows" {
					d.Borrows = true
					found = true
				} else if rest, ok := strings.CutPrefix(text, "dagger:yields-ownership"); ok {
					d.YieldsOwnership = true
					d.Params = strings.Fields(rest)
					found = true
				}
			}
			if !found {
				continue
			}
			if fn, ok := defs[fd.Name].(*types.Func); ok {
				l.directives[fn] = d
			}
		}
	}
}

// importDir resolves dir's build info, tolerating test-only directories
// (which go/build reports as NoGoError while still listing the test files).
func (l *Loader) importDir(dir string) (*build.Package, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if errors.As(err, &noGo) && bp != nil &&
			(len(bp.TestGoFiles) > 0 || len(bp.XTestGoFiles) > 0) {
			return bp, nil
		}
		return nil, fmt.Errorf("analysis: %w", err)
	}
	return bp, nil
}

// parseDir parses the build-constrained Go files of dir: the non-test files,
// plus the in-package test files when includeTests is set.
func (l *Loader) parseDir(dir string, includeTests bool) ([]*ast.File, error) {
	bp, err := l.importDir(dir)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	if includeTests {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)
	return l.parseFiles(dir, names)
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// depImporter resolves imports for type-checking. Module-local packages are
// read from the module tree; everything else is resolved against GOROOT
// (including the std vendor tree). Dependency packages are checked with
// IgnoreFuncBodies: analysis only needs their exported API.
type depImporter Loader

func (imp *depImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(imp)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l.mu.Lock()
	if pkg, ok := l.deps[path]; ok {
		l.mu.Unlock()
		return pkg, nil
	}
	l.mu.Unlock()

	dir, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         imp,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
	}
	// Module-local dependencies keep their Defs so dagger: annotations on
	// their functions (e.g. fabric.Inject's transfers-ownership contract)
	// are visible when analyzing packages that call them.
	var info *types.Info
	local := path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")
	if local {
		info = &types.Info{Defs: make(map[*ast.Ident]types.Object)}
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking dependency %s: %w", path, err)
	}
	if local {
		l.collectDirectives(files, info.Defs)
	}
	l.mu.Lock()
	l.deps[path] = pkg
	l.mu.Unlock()
	return pkg, nil
}

// resolve maps an import path to a source directory.
func (l *Loader) resolve(path string) (string, error) {
	if path == l.modulePath {
		return l.moduleRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleRoot, filepath.FromSlash(rest)), nil
	}
	for _, dir := range []string{
		filepath.Join(l.ctx.GOROOT, "src", filepath.FromSlash(path)),
		filepath.Join(l.ctx.GOROOT, "src", "vendor", filepath.FromSlash(path)),
	} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q", path)
}
