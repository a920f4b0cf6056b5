package analysis

import (
	"go/token"
	"slices"
	"sort"
	"strings"
)

// NewOrphan builds the orphan-package analyzer, a whole-program check in
// the mould of the journal analyzer's unused-code check: every package
// under an internal/ directory must be imported by at least one non-test
// package. Go lets only its own module import an internal package, so
// once nothing in the module does, no build can reach it: it is dead code
// that still costs tests, lint time and readers.
//
// The verdict needs every possible importer, so the check runs in
// standalone mode only and judges only runs that load a program (a
// package main), as a whole-module run such as ./... does; a run over a
// few library packages cannot see who imports them. Packages load without
// their _test.go files, so an import from a test does not count. There is
// no suppression: import the package or delete it.
func NewOrphan() *Analyzer {
	a := &Analyzer{
		Name: "orphan",
		Doc:  "require every internal package to be imported by a non-test package",
	}
	declared := make(map[string]token.Position)
	imported := make(map[string]bool)
	program := false
	a.Run = func(pass *Pass) error {
		if pass.Pkg.Name() == "main" {
			program = true
		}
		if slices.Contains(strings.Split(pass.Pkg.Path(), "/"), "internal") {
			declared[pass.Pkg.Path()] = pass.Fset.Position(pass.Files[0].Name.Pos())
		}
		for _, imp := range pass.Pkg.Imports() {
			imported[imp.Path()] = true
		}
		return nil
	}
	a.Finish = func(report func(Diagnostic)) {
		if !program {
			return
		}
		var orphans []string
		for path := range declared {
			if !imported[path] {
				orphans = append(orphans, path)
			}
		}
		sort.Strings(orphans)
		for _, path := range orphans {
			report(Diagnostic{
				Pos:      declared[path],
				Analyzer: "orphan",
				Message:  "internal package " + path + " is imported by no non-test package",
			})
		}
	}
	return a
}
