package analysis

import (
	"go/token"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// NewOrphan builds the orphan-package analyzer, a whole-program check in
// the mould of the journal analyzer's unused-code check: every package
// under an internal/ directory must be imported by at least one non-test
// package. Go lets only its own module import an internal package, so
// once nothing in the module does, no build can reach it: it is dead code
// that still costs tests, lint time and readers.
//
// The verdict needs every possible importer, so the check judges only
// runs that load a program (a package main), as a whole-module run such
// as ./... does; a run over a few library packages cannot see who imports
// them. Only non-test files count on both sides: an import from a
// _test.go file does not keep a package alive, and a package made only of
// test files (an external pkg_test) is never an orphan. There is no
// suppression: import the package or delete it.
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
		path := pass.Pkg.Path()
		internal := slices.Contains(strings.Split(path, "/"), "internal")
		for _, f := range pass.Files {
			if pass.inTestFile(f.Pos()) {
				continue
			}
			if _, seen := declared[path]; internal && !seen {
				declared[path] = pass.Fset.Position(f.Name.Pos())
			}
			for _, spec := range f.Imports {
				imp, _ := strconv.Unquote(spec.Path.Value) // type-checked: well-formed
				imported[imp] = true
			}
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
