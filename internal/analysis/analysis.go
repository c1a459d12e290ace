package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis and its checker function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// // dagger:ignore <name> <reason> suppressions.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Tests opts the analyzer into _test.go files: when false, diagnostics
	// the analyzer reports in test files are discarded (test code may block
	// under a lock, allocate on hot paths, and drop errors at will; it may
	// NOT be nondeterministic in simulation packages).
	Tests bool
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// All is the analyzer set cmd/daggervet runs and TestRepoClean holds the
// tree to.
var All = []*Analyzer{SimDeterminism, LockSafety, HotPathAlloc, ErrCheckLite, BufOwnership, BudgetFlow}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass provides one analyzer with one type-checked package and collects
// its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Path     string
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Directives maps functions (from this package and its loaded
	// dependencies) to their dagger: ownership annotations, so analyzers see
	// annotations across package boundaries.
	Directives map[*types.Func]Directive

	diags   []Diagnostic
	ignores *ignoreTable
}

// Reportf records a diagnostic at pos unless that line carries a
// // dagger:ignore suppression for this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppress(p.Analyzer.Name, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// Run applies analyzers to pkg and returns the diagnostics sorted by
// position. After all analyzers have run, stale // dagger:ignore directives
// — those naming an analyzer in this run that suppressed nothing — are
// reported as diagnostics themselves, so dead suppressions rot visibly.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	ignores := collectIgnores(pkg)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Path:       pkg.Path,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			Directives: pkg.Directives,
			ignores:    ignores,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diags {
			if !a.Tests && strings.HasSuffix(d.Pos.Filename, "_test.go") {
				continue
			}
			out = append(out, d)
		}
	}
	out = append(out, ignores.staleDiagnostics(analyzers)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// An ignoreEntry is one parsed // dagger:ignore directive.
type ignoreEntry struct {
	analyzer  string
	reason    string
	pos       token.Position
	used      bool
	malformed string // non-empty: why the directive could not be parsed
}

// ignoreTable indexes a package's // dagger:ignore directives by the lines
// they cover: their own line and, so a directive can sit alone above the
// statement it excuses, the line below.
type ignoreTable struct {
	entries []*ignoreEntry
	byLine  map[string]map[int][]*ignoreEntry
}

// collectIgnores parses every // dagger:ignore <analyzer> <reason> directive
// in pkg. The reason is required: an exception with no recorded rationale is
// reported as malformed rather than honored.
func collectIgnores(pkg *Package) *ignoreTable {
	t := &ignoreTable{byLine: make(map[string]map[int][]*ignoreEntry)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "dagger:ignore")
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				// A later "//" starts a nested comment (fixtures put their
				// want expectations there); it is not part of the directive.
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				e := &ignoreEntry{pos: pkg.Fset.Position(c.Pos())}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					e.malformed = "missing analyzer name and reason"
				case len(fields) == 1:
					e.malformed = "missing reason (write: // dagger:ignore <analyzer> <reason>)"
				default:
					e.analyzer = fields[0]
					e.reason = strings.Join(fields[1:], " ")
				}
				t.entries = append(t.entries, e)
				if t.byLine[e.pos.Filename] == nil {
					t.byLine[e.pos.Filename] = make(map[int][]*ignoreEntry)
				}
				for _, line := range []int{e.pos.Line, e.pos.Line + 1} {
					t.byLine[e.pos.Filename][line] = append(t.byLine[e.pos.Filename][line], e)
				}
			}
		}
	}
	return t
}

// suppress reports whether a diagnostic from analyzer at position is covered
// by a directive, marking every covering directive used.
func (t *ignoreTable) suppress(analyzer string, position token.Position) bool {
	hit := false
	for _, e := range t.byLine[position.Filename][position.Line] {
		if e.malformed == "" && e.analyzer == analyzer {
			e.used = true
			hit = true
		}
	}
	return hit
}

// staleDiagnostics reports malformed directives and directives that name an
// analyzer in this run but suppressed nothing. Directives naming analyzers
// outside the run set are left alone (a single-analyzer run cannot judge
// them); unused directives for Tests=false analyzers in _test.go files are
// skipped the same way their diagnostics would be.
func (t *ignoreTable) staleDiagnostics(analyzers []*Analyzer) []Diagnostic {
	byName := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []Diagnostic
	for _, e := range t.entries {
		if e.malformed != "" {
			out = append(out, Diagnostic{
				Analyzer: "ignore",
				Pos:      e.pos,
				Message:  "malformed dagger:ignore directive: " + e.malformed,
			})
			continue
		}
		a, inRun := byName[e.analyzer]
		if !inRun || e.used {
			continue
		}
		if !a.Tests && strings.HasSuffix(e.pos.Filename, "_test.go") {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: e.analyzer,
			Pos:      e.pos,
			Message:  fmt.Sprintf("unused dagger:ignore suppression: no %s diagnostic here", e.analyzer),
		})
	}
	return out
}

// pathIn reports whether import path p is pkg or lies beneath any of the
// given package paths.
func pathIn(p string, roots ...string) bool {
	for _, r := range roots {
		if p == r || strings.HasPrefix(p, r+"/") {
			return true
		}
	}
	return false
}

// calleeFunc resolves the called package-level function or method, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgCall reports whether call invokes a package-level function of
// pkgPath whose name is in names.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	for _, n := range names {
		if fn.Name() == n {
			return n, true
		}
	}
	return "", false
}

// isNamedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// funcName returns the name of the enclosing function declaration, or "".
func funcName(decl *ast.FuncDecl) string {
	if decl == nil || decl.Name == nil {
		return ""
	}
	return decl.Name.Name
}
