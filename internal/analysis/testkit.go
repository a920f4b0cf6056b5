package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// This file is the suite's analysistest analogue: golden packages under
// testdata/src/<importpath>/ carry `// want "regex"` comments on the
// lines where diagnostics must appear (several per line allowed), and
// lines without a want comment must stay clean. Suppression comments are
// honoured before matching, so the golden suites pin the escape-hatch
// behaviour too. Every .go file of a testdata directory is loaded, its
// _test.go files included, as loadPatterns loads a package's test
// variant. Sibling testdata packages import each other by their path
// under testdata/src; standard-library imports resolve through `go list
// -export` data, as loadPatterns' imports do.

// testImporter resolves imports for testdata packages: siblings from
// source, everything else from gc export data.
type testImporter struct {
	fset    *token.FileSet
	root    string
	pkgs    map[string]*Package
	loading map[string]bool
	exports map[string]string
	gc      types.Importer
}

func newTestImporter(root string) *testImporter {
	ti := &testImporter{
		fset:    token.NewFileSet(),
		root:    root,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		exports: make(map[string]string),
	}
	ti.gc = exportImporter(ti.fset, ti.exports, nil)
	return ti
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if p, ok := ti.pkgs[path]; ok {
		return p.Types, nil
	}
	if dir := filepath.Join(ti.root, filepath.FromSlash(path)); dirExists(dir) {
		p, err := ti.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if err := ti.ensureExport(path); err != nil {
		return nil, err
	}
	return ti.gc.Import(path)
}

// stdExportOnce caches stdlib export data across every golden test in
// the process: `go list -export -deps std` compiles once, tests share.
var stdExportOnce struct {
	sync.Once
	exports map[string]string
	err     error
}

func (ti *testImporter) ensureExport(path string) error {
	if _, ok := ti.exports[path]; ok {
		return nil
	}
	stdExportOnce.Do(func() {
		stdExportOnce.exports, stdExportOnce.err = exportData(".", []string{"std"})
	})
	if stdExportOnce.err != nil {
		return stdExportOnce.err
	}
	for p, f := range stdExportOnce.exports {
		ti.exports[p] = f
	}
	if _, ok := ti.exports[path]; !ok {
		return fmt.Errorf("testdata import %q: not a testdata sibling and not in std", path)
	}
	return nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// load parses and type-checks one testdata package by its path under
// testdata/src.
func (ti *testImporter) load(path string) (*Package, error) {
	if ti.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	ti.loading[path] = true
	defer delete(ti.loading, path)
	dir := filepath.Join(ti.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	pkg, err := typeCheck(ti.fset, path, dir, goFiles, ti)
	if err != nil {
		return nil, err
	}
	ti.pkgs[path] = pkg
	return pkg, nil
}

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants extracts `// want "..."` expectations from a package.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted parses a sequence of Go-quoted strings: `"a" "b"`.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			t.Fatalf("%s:%d: malformed want clause near %q", pos.Filename, pos.Line, s)
		}
		quote := s[0]
		end := 1
		for end < len(s) {
			if s[end] == quote && (quote == '`' || s[end-1] != '\\') {
				break
			}
			end++
		}
		if end == len(s) {
			t.Fatalf("%s:%d: unterminated want pattern in %q", pos.Filename, pos.Line, s)
		}
		unq, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, s[:end+1], err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}

// RunGolden runs the analyzers over the given testdata packages (paths
// under testdata/src, loaded in order so cross-package state accumulates
// deterministically), applies suppressions, runs Finish hooks, and
// matches every diagnostic against the packages' want comments.
func RunGolden(t *testing.T, analyzers []*Analyzer, pkgPaths ...string) {
	t.Helper()
	ti := newTestImporter(filepath.Join("testdata", "src"))
	var pkgs []*Package
	for _, path := range pkgPaths {
		pkg, err := ti.load(path)
		if err != nil {
			t.Fatalf("loading testdata package %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, err := runAnalyzers(pkg, analyzers)
		if err != nil {
			t.Fatalf("running analyzers: %v", err)
		}
		diags = append(diags, ds...)
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(func(d Diagnostic) { diags = append(diags, d) })
		}
	}
	var wants []*want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.pattern)
		}
	}
}
