//go:build ignore

// Deadexports lists the exported identifiers declared under internal/ that
// no non-test Go file of the module uses, bench/ and examples/ included.
// Uses are resolved by go/types, so a method is matched by its declaration,
// not by its name; a use of a generic method counts for its origin. A
// method that implements some interface the checked code can see (String,
// Less, Import, ...) is not reported, because a call through the interface
// reaches it. Exported struct fields, and methods of unexported types, are
// not audited.
//
// Run from the repository root:
//
//	go run deadexports.go
//
// Each line is "path:line  package.Identifier"; no output means nothing is
// dead.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root, err := os.Getwd()
	check(err)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)

	var pkgs []*types.Package
	used := map[token.Position]bool{}
	for _, dir := range packageDirs(root) {
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			continue
		}
		check(err)
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			check(err)
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		rel, _ := filepath.Rel(root, dir)
		pkg, err := conf.Check(filepath.ToSlash(filepath.Join("dagger", rel)), fset, files, info)
		check(err)
		pkgs = append(pkgs, pkg)
		for _, obj := range info.Uses {
			used[fset.Position(origin(obj).Pos())] = true
		}
	}

	ifaces := interfaces(pkgs)
	var dead []string
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path(), "/internal/") {
			continue
		}
		report := func(obj types.Object, name string) {
			pos := fset.Position(obj.Pos())
			if obj.Exported() && !used[pos] {
				rel, _ := filepath.Rel(root, pos.Filename)
				dead = append(dead, fmt.Sprintf("%s:%d\t%s.%s", rel, pos.Line, pkg.Name(), name))
			}
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			report(obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !implementsWith(named, m.Name(), ifaces) {
					report(m, name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		fmt.Println(d)
	}
}

// packageDirs lists every directory of the module and of bench/ that may
// hold a package, skipping testdata and hidden directories.
func packageDirs(root string) []string {
	var dirs []string
	check(filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	}))
	return dirs
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaces collects every named interface declared in the checked
// packages and in everything they import.
func interfaces(pkgs []*types.Package) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return out
}

// implementsWith reports whether named (or a pointer to it) implements an
// interface that has a method called method.
func implementsWith(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(1)
	}
}
