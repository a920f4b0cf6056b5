package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Dir   string
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ForTest    string
	ImportMap  map[string]string
	DepOnly    bool
}

// goList runs the go command in dir and decodes its JSON package stream.
func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("go %s: %s", strings.Join(args, " "), msg)
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go %s: decoding output: %w", strings.Join(args, " "), err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportData builds (via the go build cache) and maps export data for the
// given patterns and their full dependency closure: import path → export
// file. The gc importer reads these files directly, so type-checking a
// package never re-checks its dependencies from source.
func exportData(dir string, patterns []string) (map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, patterns...)
	pkgs, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// exportImporter returns a types.Importer resolving imports through an
// export-data map, with importMap translating source-level paths to the
// ones `go list` keys export data by (a package's ImportMap: an external
// test imports its package's test variant, "pkg [pkg.test]"; nil when
// every import is canonical).
func exportImporter(fset *token.FileSet, exports map[string]string, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typeCheck parses and type-checks one package's files.
func typeCheck(fset *token.FileSet, importPath, dir string, goFiles []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: pkg, Info: info, Dir: dir}, nil
}

// loadPatterns loads and type-checks every package matched by patterns,
// test files included, in `go list -test` order. A package with
// in-package tests is checked once, as its test variant (pkg
// [pkg.test]: the package's files plus those tests), and an external
// test package as pkg_test, each through its own ImportMap; the generated
// test mains (pkg.test) are skipped. Every file is therefore checked
// exactly once, and each package under its own import path.
func loadPatterns(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-test", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,ForTest,ImportMap,DepOnly"}, patterns...)
	listed, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	tested := make(map[string]bool)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if path, _, _ := strings.Cut(p.ImportPath, " ["); path == p.ForTest {
			tested[path] = true
		}
	}
	fset := token.NewFileSet()
	canonical := exportImporter(fset, exports, nil)
	var pkgs []*Package
	for _, p := range listed {
		path, _, _ := strings.Cut(p.ImportPath, " [")
		// Skip dependencies, a package whose test variant holds its
		// files, and the test mains.
		if p.DepOnly || len(p.GoFiles) == 0 ||
			p.ForTest == "" && (tested[path] || strings.HasSuffix(path, ".test")) {
			continue
		}
		imp := canonical
		if len(p.ImportMap) > 0 {
			imp = exportImporter(fset, exports, p.ImportMap)
		}
		pkg, err := typeCheck(fset, path, p.Dir, p.GoFiles, imp)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
